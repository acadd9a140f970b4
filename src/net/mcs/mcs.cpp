#include "net/mcs/mcs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "phy/ber.hpp"

namespace vab::net::mcs {

namespace {

/// Hamming(7,4) block failure probability at channel-bit error rate `p`:
/// the code corrects any single error in a 7-bit block, so a block fails
/// when two or more bits flip (the interleaver justifies the i.i.d.
/// assumption by spreading fade bursts across blocks).
double hamming74_block_failure(double p) {
  const double q = 1.0 - p;
  const double q6 = q * q * q * q * q * q;
  // The subtraction cancels to ~ -1e-17 for tiny p; clamp so the delivery
  // curve stays inside [0, 1] and monotone.
  return std::max(0.0, 1.0 - q6 * q - 7.0 * p * q6);
}

}  // namespace

std::size_t McsEntry::chips_per_bit() const {
  switch (code) {
    case phy::UplinkCode::kMiller2: return 4;
    case phy::UplinkCode::kMiller4: return 8;
    case phy::UplinkCode::kFm0: break;
  }
  return 2;
}

common::Db McsEntry::code_margin() const {
  switch (code) {
    case phy::UplinkCode::kMiller2: return common::Db{kMillerMarginDbPerDoubling};
    case phy::UplinkCode::kMiller4:
      return common::Db{2.0 * kMillerMarginDbPerDoubling};
    case phy::UplinkCode::kFm0: break;
  }
  return common::Db{0.0};
}

double McsEntry::ber(common::SnrDb snr_ref) const {
  // Energy conservation: the received power is fixed, so chip energy scales
  // as 1/chip_rate. The reference rung's offset is exactly 0.0 dB, keeping
  // its curve bit-identical to the legacy ber_fm0 path.
  const double offset_db =
      10.0 * std::log10(kReferenceChipRateHz / chip_rate().raw()) +
      code_margin().raw();
  const double snr_chip = std::pow(10.0, (snr_ref.raw() + offset_db) / 10.0);
  // A bit decision coherently combines chips_per_bit chips; FM0's two-chip
  // combining is the ber_fm0 convention, so the generic expression scales
  // the antipodal argument by chips_per_bit/2 (1.0 for FM0).
  const double combining = static_cast<double>(chips_per_bit()) / 2.0;
  return phy::ber_fm0(combining * snr_chip);
}

double McsEntry::frame_delivery_prob(common::SnrDb snr_ref,
                                     std::size_t payload_bits) const {
  const double p = ber(snr_ref);
  if (!fec) return std::pow(1.0 - p, static_cast<double>(payload_bits));
  // One Hamming block per 4 data bits (nibble-padded, matching FrameCodec).
  const double blocks = static_cast<double>((payload_bits + 3) / 4);
  return std::pow(1.0 - hamming74_block_failure(p), blocks);
}

std::size_t McsEntry::air_bits(std::size_t payload_bits) const {
  if (!fec) return payload_bits;
  return (payload_bits + 3) / 4 * 7;  // nibble-padded Hamming(7,4)
}

common::Seconds McsEntry::slot_duration(std::size_t slot_payload_bytes) const {
  // Mirrors MacTiming::slot_duration_s: frame bytes on the air at this
  // rung's bitrate (FEC expansion included), 10 ms preamble/idle overhead,
  // 20% margin.
  const std::size_t frame_bits = (4 + slot_payload_bytes + 2) * 8;
  const double bits = static_cast<double>(air_bits(frame_bits));
  return common::Seconds{1.2 * (bits / bitrate_bps + 0.010)};
}

void McsEntry::apply(phy::PhyConfig& phy, phy::FecConfig& fec_cfg) const {
  phy.bitrate_bps = bitrate_bps;
  phy.uplink_code = code;
  fec_cfg.enable = fec;
}

const McsEntry& paper_rung() {
  static const McsEntry entry{"fm0-500", 500.0, phy::UplinkCode::kFm0, false};
  return entry;
}

// Per-ladder table of sustain thresholds, one entry per (target,
// payload_bits) seen. A deque keeps handed-out references stable as
// entries are appended.
struct McsLadder::ThresholdMemo {
  struct Entry {
    double target;
    std::size_t payload_bits;
    std::vector<double> snr_db;
  };
  std::mutex mu;
  std::deque<Entry> entries;
};

McsLadder::McsLadder(std::vector<McsEntry> rungs)
    : rungs_(std::move(rungs)), memo_(std::make_shared<ThresholdMemo>()) {
  if (rungs_.empty()) throw std::invalid_argument("MCS ladder is empty");
  if (rungs_.size() > kMaxRungs)
    throw std::invalid_argument("MCS ladder exceeds kMaxRungs");
  for (std::size_t i = 1; i < rungs_.size(); ++i) {
    if (!(rungs_[i].data_rate_bps() > rungs_[i - 1].data_rate_bps()))
      throw std::invalid_argument("MCS ladder not ordered by data rate at rung " +
                                  std::to_string(i));
  }
  // Robustness order: a faster rung must also need strictly more SNR for
  // the same frame delivery, or "step down" would not buy robustness.
  for (std::size_t i = 1; i < rungs_.size(); ++i) {
    const common::SnrDb lo = snr_for_delivery(i - 1, 0.5, kValidationFrameBits);
    const common::SnrDb hi = snr_for_delivery(i, 0.5, kValidationFrameBits);
    if (!(hi > lo))
      throw std::invalid_argument(
          "MCS ladder not ordered by waterfall SNR at rung " + std::to_string(i));
  }
}

McsLadder McsLadder::default_ladder() {
  std::vector<McsEntry> rungs;
  rungs.push_back({"m4-125-fec", 125.0, phy::UplinkCode::kMiller4, true});
  rungs.push_back({"m2-250-fec", 250.0, phy::UplinkCode::kMiller2, true});
  rungs.push_back({"fm0-500-fec", 500.0, phy::UplinkCode::kFm0, true});
  rungs.push_back(paper_rung());
  rungs.push_back({"fm0-1000", 1000.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"fm0-2000", 2000.0, phy::UplinkCode::kFm0, false});
  rungs.push_back({"fm0-4000", 4000.0, phy::UplinkCode::kFm0, false});
  return McsLadder(std::move(rungs));
}

const McsEntry& McsLadder::rung(std::size_t i) const {
  if (i >= rungs_.size()) throw std::out_of_range("MCS rung index");
  return rungs_[i];
}

common::SnrDb McsLadder::snr_for_delivery(std::size_t rung_index, double target,
                                          std::size_t payload_bits) const {
  const McsEntry& e = rung(rung_index);
  if (!(target > 0.0 && target < 1.0))
    throw std::invalid_argument("delivery target outside (0, 1)");
  double lo = -40.0, hi = 40.0;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (e.frame_delivery_prob(common::SnrDb{mid}, payload_bits) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return common::SnrDb{0.5 * (lo + hi)};
}

const std::vector<double>& McsLadder::sustain_snr_db(
    double target, std::size_t payload_bits) const {
  std::lock_guard<std::mutex> lk(memo_->mu);
  for (const ThresholdMemo::Entry& e : memo_->entries) {
    if (e.target == target && e.payload_bits == payload_bits) return e.snr_db;
  }
  // Fill fully before inserting, so a throwing target leaves no entry.
  std::vector<double> snr_db;
  snr_db.reserve(rungs_.size());
  for (std::size_t r = 0; r < rungs_.size(); ++r)
    snr_db.push_back(snr_for_delivery(r, target, payload_bits).raw());
  memo_->entries.push_back({target, payload_bits, std::move(snr_db)});
  return memo_->entries.back().snr_db;
}

}  // namespace vab::net::mcs
