#include "phy/modem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"
#include "phy/equalizer.hpp"
#include "phy/fm0.hpp"
#include "phy/miller.hpp"

namespace vab::phy {

std::size_t PhyConfig::decimation() const {
  const double target_rate =
      static_cast<double>(target_samples_per_chip) * chip_rate_hz();
  const auto m = static_cast<std::size_t>(std::floor(fs_hz / target_rate));
  return std::max<std::size_t>(m, 1);
}

BackscatterModulator::BackscatterModulator(PhyConfig cfg) : cfg_(cfg) {
  if (cfg_.fs_hz <= 0.0 || cfg_.bitrate_bps <= 0.0)
    throw std::invalid_argument("bad PHY config");
  if (cfg_.chip_rate_hz() >= cfg_.fs_hz / 4.0)
    throw std::invalid_argument("chip rate too high for the sample rate");
}

namespace {
bitvec encode_uplink(const bitvec& bits, UplinkCode code) {
  switch (code) {
    case UplinkCode::kMiller2: return miller_encode(bits, 2);
    case UplinkCode::kMiller4: return miller_encode(bits, 4);
    case UplinkCode::kFm0: break;
  }
  return fm0_encode(bits);
}

// First passband sample whose chip index size_t(double(i) / spc) is >= c.
// The index is monotone in i, so the ceil estimate is at most a sample off
// and is settled against the same division the per-sample formula uses.
std::size_t chip_start(std::size_t c, double spc) {
  const auto chip_of = [spc](std::size_t i) {
    return static_cast<std::size_t>(static_cast<double>(i) / spc);
  };
  auto i = static_cast<std::size_t>(std::ceil(static_cast<double>(c) * spc));
  while (i > 0 && chip_of(i - 1) >= c) --i;
  while (chip_of(i) < c) ++i;
  return i;
}

bitvec decode_uplink_soft(const rvec& soft, UplinkCode code) {
  switch (code) {
    case UplinkCode::kMiller2: return miller_decode_soft(soft, 2);
    case UplinkCode::kMiller4: return miller_decode_soft(soft, 4);
    case UplinkCode::kFm0: break;
  }
  return fm0_decode_soft(soft);
}
}  // namespace

std::size_t BackscatterModulator::waveform_length(std::size_t n_payload_bits) const {
  const std::size_t chips = 2 * kIdleChips + kSettleChips +
                            fm0_preamble_chips().size() +
                            cfg_.chips_per_bit() * n_payload_bits;
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  return static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
}

bitvec BackscatterModulator::switch_waveform(const bitvec& payload_bits) const {
  bitvec wave;
  switch_waveform(payload_bits, wave);
  return wave;
}

void BackscatterModulator::switch_waveform(const bitvec& payload_bits,
                                           bitvec& wave) const {
  auto chips_l = dsp::Workspace::local().take_b(0);
  bitvec& chips = *chips_l;
  chips.insert(chips.end(), kIdleChips, 0);  // absorptive idle (harvesting)
  for (std::size_t i = 0; i < kSettleChips; ++i)
    chips.push_back(static_cast<std::uint8_t>(i & 1u));  // alternating pilot
  const bitvec& pre = fm0_preamble_chips();
  chips.insert(chips.end(), pre.begin(), pre.end());
  const bitvec data_chips = encode_uplink(payload_bits, cfg_.uplink_code);
  chips.insert(chips.end(), data_chips.begin(), data_chips.end());
  chips.insert(chips.end(), kIdleChips, 0);

  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  const auto n =
      static_cast<std::size_t>(std::ceil(static_cast<double>(chips.size()) * spc));
  // Sample i carries chip size_t(i / spc), the last chip past the end;
  // runs are filled between chip boundaries instead of dividing per sample.
  wave.resize(n);
  std::size_t i = 0;
  for (std::size_t c = 0; i < n; ++c) {
    const std::size_t end = c + 1 < chips.size() ? std::min(chip_start(c + 1, spc), n) : n;
    std::fill(wave.begin() + static_cast<std::ptrdiff_t>(i),
              wave.begin() + static_cast<std::ptrdiff_t>(end), chips[c]);
    i = end;
  }
}

bitvec BackscatterModulator::active_mask(std::size_t n_payload_bits) const {
  bitvec mask;
  active_mask(n_payload_bits, mask);
  return mask;
}

void BackscatterModulator::active_mask(std::size_t n_payload_bits, bitvec& mask) const {
  const std::size_t pre = fm0_preamble_chips().size();
  const std::size_t active_chips =
      kSettleChips + pre + cfg_.chips_per_bit() * n_payload_bits;
  const std::size_t chips = 2 * kIdleChips + active_chips;
  const double spc = cfg_.fs_hz / cfg_.chip_rate_hz();
  const auto n = static_cast<std::size_t>(std::ceil(static_cast<double>(chips) * spc));
  // 1 where sample i's chip size_t(i / spc) is an active one.
  mask.assign(n, 0);
  const std::size_t first = std::min(chip_start(kIdleChips, spc), n);
  const std::size_t last = std::min(chip_start(kIdleChips + active_chips, spc), n);
  std::fill(mask.begin() + static_cast<std::ptrdiff_t>(first),
            mask.begin() + static_cast<std::ptrdiff_t>(last), std::uint8_t{1});
}

ReaderDemodulator::ReaderDemodulator(PhyConfig cfg) : cfg_(cfg) {
  if (cfg_.fs_hz <= 0.0 || cfg_.bitrate_bps <= 0.0)
    throw std::invalid_argument("bad PHY config");
  // The anti-alias filter needs a very deep stopband: the -2fc mixing image
  // of the carrier blast can sit ~90 dB above the backscatter sidebands and
  // would alias into baseband at the decimation step. Kaiser beta 12 buys
  // ~118 dB of stopband attenuation.
  const double cutoff = 2.5 * cfg_.chip_rate_hz();
  lowpass_taps_ = dsp::design_lowpass(cutoff, cfg_.fs_hz, cfg_.lowpass_taps,
                                      dsp::WindowType::kKaiser, 12.0);

  // Baseband sync reference at the (possibly fractional) samples-per-chip
  // rate. The reference spans the settle pilot plus the Barker preamble: the
  // alternating pilot pins chip timing (a one-chip slip flips every pilot
  // chip) while Barker's autocorrelation pins which chip is which.
  const double spc = cfg_.samples_per_chip_bb();
  pre_levels_.reserve(BackscatterModulator::kSettleChips + fm0_preamble_chips().size());
  for (std::size_t i = 0; i < BackscatterModulator::kSettleChips; ++i)
    pre_levels_.push_back((i & 1u) ? 1.0 : -1.0);
  for (double v : fm0_preamble_levels()) pre_levels_.push_back(v);
  const auto ref_len =
      static_cast<std::size_t>(std::floor(static_cast<double>(pre_levels_.size()) * spc));
  // Zero-mean the reference: the AC-coupled front end removes DC, and a
  // DC-free reference cannot correlate with residual carrier transients.
  double pre_mean = 0.0;
  for (double v : pre_levels_) pre_mean += v;
  pre_mean /= static_cast<double>(pre_levels_.size());
  sync_ref_.resize(ref_len);
  for (std::size_t i = 0; i < ref_len; ++i) {
    const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
    sync_ref_[i] = cplx{pre_levels_[std::min(c, pre_levels_.size() - 1)] - pre_mean, 0.0};
  }
}

cvec ReaderDemodulator::to_baseband(const rvec& passband, double* suppression_db) const {
  cvec out;
  to_baseband(passband, out, suppression_db);
  return out;
}

void ReaderDemodulator::to_baseband(const rvec& passband, cvec& out,
                                    double* suppression_db) const {
  VAB_STAGE("demod.baseband");
  // Downconvert, then anti-alias + decimate in one decimated FIR pass: only
  // the kept baseband samples are computed, so the 255-tap filter costs
  // 1/decimation() of full-rate filtering while producing bit-identical
  // outputs.
  auto bb_l = dsp::Workspace::local().take_c(0);
  cvec& bb = *bb_l;
  dsp::downconvert(passband, cfg_.carrier_hz, cfg_.fs_hz, 0.0, bb);
  const std::size_t m = cfg_.decimation();
  // Skip the filter warm-up: while the delay line fills, the output ramps
  // from zero to the blast level, and that ramp would ring the carrier
  // notch for thousands of samples.
  const std::size_t warmup = cfg_.lowpass_taps + 8 * m;
  dsp::fir_filter_decimate(lowpass_taps_, bb, m, warmup, out);

  // Self-interference cancellation.
  VAB_STAGE("demod.sic");
  SelfInterferenceCanceller sic(cfg_.sic, cfg_.chip_rate_hz(), cfg_.fs_baseband_hz());
  sic.process_inplace(out);
  if (suppression_db) *suppression_db = sic.last_suppression_db();
}

DemodResult ReaderDemodulator::demodulate(const rvec& passband,
                                          std::size_t expected_bits) const {
  DemodResult res;
  auto bb_l = dsp::Workspace::local().take_c(0);
  cvec& bb = *bb_l;
  to_baseband(passband, bb, &res.sic_suppression_db);

  // Sync against the cached zero-meaned reference (built at construction).
  const double spc = cfg_.samples_per_chip_bb();
  const rvec& pre_levels = pre_levels_;
  const cvec& ref = sync_ref_;

  const auto peak = [&] {
    VAB_STAGE("demod.sync");
    return dsp::find_peak(bb, ref, cfg_.sync_threshold);
  }();
  if (!peak) return res;
  res.sync_found = true;
  res.corr_peak = peak->value;
  res.carrier_phase_rad = std::arg(peak->raw);
  res.sync_index_bb = peak->index;

  // Matched filter per chip over the whole frame (training + data).
  const std::size_t n_known = pre_levels.size();
  const std::size_t n_data = cfg_.chips_per_bit() * expected_bits;
  const std::size_t n_total = n_known + n_data;
  auto chips_l = dsp::Workspace::local().take_c(n_total);
  cvec& chips = *chips_l;
  {
    VAB_STAGE("demod.chips");
    for (std::size_t c = 0; c < n_total; ++c) {
      // Integrate the central 60% of the chip: the anti-alias filter smears
      // the chip edges, and including them both biases the soft value and
      // inflates the noise estimate.
      const double t0 =
          static_cast<double>(peak->index) + (static_cast<double>(c) + 0.2) * spc;
      const double t1 = t0 + 0.6 * spc;
      cplx acc{};
      int cnt = 0;
      // NOLINTNEXTLINE(cert-flp30-c): t0 is fractional (sub-sample sync) and
      // every pinned output depends on this exact accumulate-by-1.0 rounding;
      // an integer counter with t0 + k rounds differently at the last bit.
      for (double t = t0; t < t1 - 0.5; t += 1.0) {
        if (t >= 0.0 && t < static_cast<double>(bb.size() - 1)) {
          acc += dsp::sample_at(bb, t);
          ++cnt;
        }
      }
      if (cnt > 0) acc /= static_cast<double>(cnt);
      chips[c] = acc;
    }
  }

  // Equalize using the known training chips (pilot + preamble): shallow-water
  // multipath lands fractions of a chip late and fades coherently; the
  // LS-fitted chip-spaced channel + zero-forcing inverse restores the
  // constellation. Falls back to plain derotation when disabled or when the
  // fit fails.
  cplx derot = std::exp(cplx{0.0, -res.carrier_phase_rad});
  if (cfg_.enable_equalizer && n_known >= 2 * cfg_.channel_taps + 4) {
    VAB_STAGE("demod.equalize");
    try {
      const cvec known_chips(chips.begin(),
                             chips.begin() + static_cast<std::ptrdiff_t>(n_known));
      const auto est =
          estimate_channel_ls(known_chips, pre_levels, cfg_.channel_taps, 1);
      res.channel_fit_error = est.fit_error;
      std::size_t delay = 0;
      const cvec w = design_zf_equalizer(est, cfg_.equalizer_taps, delay);
      cvec shifted = chips;
      for (auto& v : shifted) v -= est.baseline;
      // Copied into the lease rather than move-assigned: a move would hand
      // the arena this small vector in place of its pooled buffer, and a
      // later full-length take would have to regrow it every trial.
      const cvec eq = equalize(shifted, w, delay);
      chips.assign(eq.begin(), eq.end());
      // Residual complex gain after equalization, from the training region.
      cplx g{};
      for (std::size_t c = 0; c < n_known; ++c) g += chips[c] * pre_levels[c];
      derot = std::abs(g) > 0.0 ? std::conj(g) / std::abs(g) : cplx{1.0, 0.0};
    } catch (const std::exception&) {
      // Singular fit (e.g. no signal): keep the unequalized chips.
    }
  }

  const std::size_t n_chips = n_data;
  auto soft_l = dsp::Workspace::local().take_r(n_chips);
  auto mags_l = dsp::Workspace::local().take_r(n_chips);
  rvec& soft = *soft_l;
  rvec& mags = *mags_l;
  for (std::size_t c = 0; c < n_chips; ++c) {
    soft[c] = (chips[n_known + c] * derot).real();
    mags[c] = std::abs(soft[c]);
  }

  // Remove residual baseline drift (SIC convergence transient) in two
  // passes. Pass 1: a centered moving average estimates the baseline — FM0
  // data is balanced, so the local chip mean is mostly baseline, but random
  // data imbalance leaks modulation into it. Pass 2 (decision-directed):
  // strip the modulation using the pass-1 chip signs, then re-estimate the
  // baseline from the residual alone, which is modulation-free at high SNR.
  if (n_chips > 0) {
    auto moving_mean = [n_chips](const rvec& v, std::size_t half) {
      rvec m(n_chips);
      for (std::size_t c = 0; c < n_chips; ++c) {
        const std::size_t lo = c >= half ? c - half : 0;
        const std::size_t hi = std::min(c + half, n_chips - 1);
        double acc = 0.0;
        for (std::size_t k = lo; k <= hi; ++k) acc += v[k];
        m[c] = acc / static_cast<double>(hi - lo + 1);
      }
      return m;
    };

    const rvec base1 = moving_mean(soft, 4);
    rvec pass1(n_chips);
    double amp = 0.0;
    for (std::size_t c = 0; c < n_chips; ++c) {
      pass1[c] = soft[c] - base1[c];
      amp += std::abs(pass1[c]);
    }
    amp /= static_cast<double>(n_chips);

    rvec residual(n_chips);
    for (std::size_t c = 0; c < n_chips; ++c)
      residual[c] = soft[c] - (pass1[c] >= 0.0 ? amp : -amp);
    const rvec base2 = moving_mean(residual, 4);
    for (std::size_t c = 0; c < n_chips; ++c) {
      soft[c] -= base2[c];
      mags[c] = std::abs(soft[c]);
    }
  }

  {
    VAB_STAGE("demod.decode");
    res.bits = decode_uplink_soft(soft, cfg_.uplink_code);
  }

  // Chip-SNR estimate: signal power from the mean magnitude, noise from the
  // spread around +/- that level.
  if (!mags.empty()) {
    const double a = common::mean(mags);
    double nvar = 0.0;
    for (std::size_t c = 0; c < soft.size(); ++c) {
      const double err = mags[c] - a;
      nvar += err * err;
    }
    nvar /= static_cast<double>(soft.size());
    res.snr_db = 10.0 * std::log10(std::max(a * a, 1e-30) / std::max(nvar, 1e-30));
  }
  return res;
}

rvec reader_carrier(const PhyConfig& cfg, std::size_t n_samples) {
  return dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, n_samples);
}

}  // namespace vab::phy
