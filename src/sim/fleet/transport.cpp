#include "sim/fleet/transport.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "phy/fec.hpp"

namespace vab::sim::fleet {
namespace {

// Wire bytes <-> air bits, MSB first (matches net::serialize_bits).
void bytes_to_bits(const bytes& in, bitvec& out) {
  out.clear();
  out.reserve(in.size() * 8);
  for (const std::uint8_t byte : in)
    for (int b = 7; b >= 0; --b)
      out.push_back(static_cast<std::uint8_t>((byte >> b) & 1U));
}

void bits_to_bytes(const bitvec& in, bytes& out) {
  out.assign(in.size() / 8, 0);
  for (std::size_t i = 0; i < out.size() * 8; ++i)
    out[i / 8] = static_cast<std::uint8_t>(
        (out[i / 8] << 1U) | (in[i] & 1U));
}

}  // namespace

FleetLinkTransport::FleetLinkTransport(const Scenario& base,
                                       const FidelityPolicy& policy,
                                       common::Db contention_penalty,
                                       std::size_t report_bits)
    : base_(base),
      policy_(policy),
      contention_penalty_db_(contention_penalty.raw()),
      budget_(base) {
  // Waterfall SNR: where frame delivery crosses 50% for the representative
  // wire length at the paper rung. Delivery is monotone in SNR, so bisect.
  const net::mcs::McsEntry& paper = net::mcs::paper_rung();
  double lo = -30.0, hi = 30.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (paper.frame_delivery_prob(common::SnrDb{mid}, report_bits) < 0.5) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  waterfall_snr_db_ = 0.5 * (lo + hi);
}

void FleetLinkTransport::begin_window(std::vector<LinkInfo> links,
                                      common::Rng wave_stream,
                                      std::size_t contenders) {
  links_ = std::move(links);
  for (LinkInfo& l : links_)
    l.snr_db = budget_.evaluate(common::Meters{l.range_m}).snr_chip_db;
  wave_ = std::vector<std::unique_ptr<WaveLink>>(links_.size());
  mcs_.assign(links_.size(), nullptr);
  wave_stream_ = wave_stream;
  contenders_ = contenders;
  penalty_db_ = slotted_mode_ ? 0.0
                              : static_cast<double>(contenders) * contention_penalty_db_;
}

void FleetLinkTransport::set_uplink_mcs(std::uint8_t addr,
                                        const net::mcs::McsEntry* entry) {
  if (addr < mcs_.size()) mcs_[addr] = entry;
}

FleetLinkTransport::WaveLink& FleetLinkTransport::wave_link(std::uint8_t addr) {
  std::unique_ptr<WaveLink>& slot = wave_[addr];
  if (!slot) {
    Scenario s = base_;
    s.range_m = links_[addr].range_m;
    // The window's SINR penalty, as a quieter projector: the backscatter
    // scales with the source level and the ambient noise does not.
    s.reader.source_level_db -= penalty_db_;
    // One draw stream per (run, node): escalation order cannot perturb other
    // links, and the parent window stream is never advanced.
    slot = std::make_unique<WaveLink>(std::move(s),
                                      wave_stream_.child(links_[addr].node_id));
  }
  return *slot;
}

bool FleetLinkTransport::choose_fidelity(common::SnrDb snr_eff) {
  bool want_waveform = false;
  switch (policy_.mode) {
    case FidelityMode::kBudgetOnly:
      break;
    case FidelityMode::kWaveformOnly:
      want_waveform = true;
      break;
    case FidelityMode::kAdaptive: {
      const bool marginal =
          std::abs((snr_eff - waterfall_snr_db()).raw()) <= kEscalateMargin.raw();
      const bool contended = contenders_ > 0;
      if (marginal || contended) {
        want_waveform = true;
        if (marginal) ++tally_.escalations_marginal;
        if (contended) ++tally_.escalations_contention;
      }
      break;
    }
  }
  if (want_waveform && tally_.waveform_polls >= policy_.max_waveform_polls) {
    ++tally_.waveform_cap_hits;
    want_waveform = false;
  }
  return want_waveform;
}

bool FleetLinkTransport::downlink_delivered(std::uint8_t addr, common::Rng& rng) {
  // The query/ACK legs ride the projector carrier, ~90 dB louder than the
  // backscatter return; fleet-scale loss is concentrated on the uplink.
  (void)addr;
  (void)rng;
  return true;
}

bool FleetLinkTransport::ack_delivered(std::uint8_t addr, common::Rng& rng) {
  (void)addr;
  (void)rng;
  return true;
}

bool FleetLinkTransport::uplink_delivered(std::uint8_t addr, bytes& wire,
                                          common::Rng& rng) {
  if (addr >= links_.size())
    throw std::out_of_range("poll outside the active address window");
  const LinkInfo& link = links_[addr];
  if (contenders_ > 0) ++tally_.contended_polls;

  const double snr_eff = link.snr_db.raw() - penalty_db_;
  const net::mcs::McsEntry* entry = mcs_[addr];
  // The waveform pipeline runs the scenario's fixed PHY config, so a
  // commanded rung (whose curve the MAC is adapting against) pins budget
  // fidelity instead of silently decoding at the wrong rate.
  if (entry != nullptr || !choose_fidelity(common::SnrDb{snr_eff})) {
    ++tally_.budget_polls;
    const double fade = rng.gaussian(0.0, base_.env.fading_sigma_db);
    last_snr_db_ = common::SnrDb{snr_eff + fade};
    const net::mcs::McsEntry& curve =
        entry != nullptr ? *entry : net::mcs::paper_rung();
    return rng.coin(curve.frame_delivery_prob(common::SnrDb{snr_eff + fade},
                                              wire.size() * 8));
  }

  ++tally_.waveform_polls;
  last_snr_db_ = common::SnrDb{snr_eff};  // budget estimate; waveform draw implicit
  WaveLink& wl = wave_link(addr);
  bitvec tx_bits;
  bytes_to_bits(wire, tx_bits);
  const WaveformTrialResult trial = wl.sim.run_trial(tx_bits);
  if (trial.frame_ok) return true;
  if (!trial.demod.sync_found) return false;  // no reply detected at all
  // Sync but bit errors: hand the damaged bits back on the wire and let the
  // reader's CRC classify them, exactly as the single-link pipeline does.
  const phy::FrameCodec codec(base_.fec);
  if (trial.demod.bits.size() != codec.coded_size(tx_bits.size())) return false;
  std::size_t corrected = 0;
  const bitvec decoded = codec.decode(trial.demod.bits, tx_bits.size(), corrected);
  bits_to_bytes(decoded, wire);
  return true;
}

}  // namespace vab::sim::fleet
