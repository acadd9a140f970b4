#include "channel/waveform_channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/units.hpp"
#include "dsp/resample.hpp"
#include "dsp/workspace.hpp"
#include "obs/obs.hpp"

namespace vab::channel {

WaveformChannel::WaveformChannel(WaveformChannelConfig cfg, common::Rng& rng)
    : cfg_(std::move(cfg)), rng_(&rng) {
  const auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!finite_positive(cfg_.fs_hz))
    throw std::invalid_argument("sample rate must be finite and > 0");
  if (!finite_positive(cfg_.sound_speed_mps))
    throw std::invalid_argument("sound speed must be finite and > 0");
  if (cfg_.taps.empty()) throw std::invalid_argument("channel needs at least one tap");
  if (!(std::isfinite(cfg_.surface_wave_amplitude_m) &&
        cfg_.surface_wave_amplitude_m >= 0.0))
    throw std::invalid_argument("surface wave amplitude must be finite and >= 0");
  if (!finite_positive(cfg_.surface_wave_period_s))
    throw std::invalid_argument("surface wave period must be finite and > 0");
  for (const auto& tap : cfg_.taps) {
    const double lowest = tap.delay_s * cfg_.fs_hz - breathe_samples(tap);
    if (!(std::isfinite(lowest) && lowest >= 0.0))
      throw std::invalid_argument(
          "tap delay must be finite and stay >= 0 under surface-wave breathing");
  }
  fade_.resize(cfg_.taps.size(), 1.0);
  if (cfg_.fading_sigma_db > 0.0) {
    for (auto& f : fade_)
      f = std::pow(10.0, rng_->gaussian(0.0, cfg_.fading_sigma_db) / 20.0);
  }
  fixed_.reserve(cfg_.taps.size());
  for (std::size_t p = 0; p < cfg_.taps.size(); ++p) {
    const double g = cfg_.taps[p].gain * fade_[p];
    const double d0 = cfg_.taps[p].delay_s * cfg_.fs_hz;  // fractional sample delay
    const auto d_int = static_cast<std::size_t>(d0);
    const double frac = d0 - static_cast<double>(d_int);
    fixed_.push_back({d_int, g * (1.0 - frac), g * frac});
  }
}

double WaveformChannel::max_delay_s() const {
  double d = 0.0;
  for (const auto& t : cfg_.taps) d = std::max(d, t.delay_s);
  return d;
}

bool WaveformChannel::breathes(const PathTap& tap) const {
  return cfg_.surface_wave_amplitude_m > 0.0 && tap.surface_bounces > 0;
}

double WaveformChannel::breathe_samples(const PathTap& tap) const {
  // Each surface bounce adds ~2*displacement of path length; taps with
  // more bounces move proportionally more.
  if (!breathes(tap)) return 0.0;
  return 2.0 * cfg_.surface_wave_amplitude_m * static_cast<double>(tap.surface_bounces) /
         cfg_.sound_speed_mps * cfg_.fs_hz;
}

void WaveformChannel::apply_taps(const rvec& tx, rvec& out) const {
  VAB_STAGE("channel.apply_taps");
  const double fs = cfg_.fs_hz;
  const double wave_amp = cfg_.surface_wave_amplitude_m;
  // Extra headroom covers the static delays plus the surface-wave breathing
  // of the most-bounced tap (never less than six bounces' worth, the
  // historical allowance, so output lengths do not depend on the tap set).
  int bounces = 6;
  for (const auto& tap : cfg_.taps) bounces = std::max(bounces, tap.surface_bounces);
  const double max_breathe =
      wave_amp > 0.0
          ? 2.0 * wave_amp * static_cast<double>(bounces) / cfg_.sound_speed_mps
          : 0.0;
  const auto extra =
      static_cast<std::size_t>(std::ceil((max_delay_s() + max_breathe) * fs)) + 2;
  out.assign(tx.size() + extra, 0.0);
  // Taps apply in order. Runs of fixed-delay taps go through the gather
  // kernel (same per-output addition order, so the same bits); a breathing
  // tap's delay changes per sample, so it keeps the scatter loop.
  std::size_t p = 0;
  while (p < cfg_.taps.size()) {
    if (!breathes(cfg_.taps[p])) {
      std::size_t end = p + 1;
      while (end < cfg_.taps.size() && !breathes(cfg_.taps[end])) ++end;
      dsp::simd::delay_taps(fixed_.data() + p, end - p, tx.data(), tx.size(), out.data(),
                            out.size());
      p = end;
      continue;
    }
    const auto& tap = cfg_.taps[p];
    const double g = tap.gain * fade_[p];
    const double d0 = tap.delay_s * fs;  // fractional sample delay
    // Random initial phase per tap.
    const double omega = common::kTwoPi / (cfg_.surface_wave_period_s * fs);
    const double depth_mod = breathe_samples(tap);
    const double phi0 = 2.0 * common::kPi * static_cast<double>(p) / 7.0;
    for (std::size_t n = 0; n < tx.size(); ++n) {
      const double d = d0 + depth_mod * std::sin(omega * static_cast<double>(n) + phi0);
      const auto d_int = static_cast<std::size_t>(d);
      const double frac = d - static_cast<double>(d_int);
      out[n + d_int] += g * (1.0 - frac) * tx[n];
      out[n + d_int + 1] += g * frac * tx[n];
    }
    ++p;
  }
}

rvec WaveformChannel::propagate_clean(const rvec& tx) const {
  rvec y;
  propagate_clean(tx, y);
  return y;
}

void WaveformChannel::propagate_clean(const rvec& tx, rvec& out) const {
  apply_taps(tx, out);
  if (cfg_.doppler_speed_mps != 0.0) {
    // Uniform motion compresses/dilates the time axis by (1 +/- v/c).
    const double factor = 1.0 + cfg_.doppler_speed_mps / cfg_.sound_speed_mps;
    out = dsp::resample_linear(out, cfg_.fs_hz * factor, cfg_.fs_hz);
  }
}

rvec WaveformChannel::propagate(const rvec& tx) const {
  rvec y;
  propagate(tx, y);
  return y;
}

void WaveformChannel::propagate(const rvec& tx, rvec& out) const {
  propagate_clean(tx, out);
  // Injected impairment before the additive noise floor: a shadowing dip
  // attenuates the signal, not the ambient field.
  if (cfg_.fault && cfg_.fault->enabled()) cfg_.fault->apply_snr_dip(out);
  if (cfg_.add_noise) {
    auto noise_l = dsp::Workspace::local().take_r(0);
    rvec& noise = *noise_l;
    synthesize_ambient_noise(out.size(), common::SampleRateHz{cfg_.fs_hz}, cfg_.noise,
                             *rng_, noise);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += noise[i];
  }
}

std::vector<PathTap> single_tap(double gain, double delay_s) {
  return {PathTap{delay_s, gain, 0, 0}};
}

}  // namespace vab::channel
