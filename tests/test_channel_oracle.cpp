// Byte-for-byte oracles for the waveform channel's two hot stages. Each test
// keeps a local copy of the straightforward implementation the library used
// before its fast path — the scatter loop for tap application, and the
// natural-order spectrum fill plus permuting inverse FFT for ambient noise
// — and requires identical bits from the library over randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace vab::channel {
namespace {

bool bytes_equal(const rvec& a, const rvec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The scatter-form tap application: every tap, in order, adds each input
// sample into its two neighbouring output slots. Breathing taps re-derive
// their delay per sample. Headroom as the library sizes it for <= 6 bounces.
rvec scatter_taps(const WaveformChannelConfig& cfg, const std::vector<double>& fade,
                  const rvec& tx) {
  const double fs = cfg.fs_hz;
  const double wave_amp = cfg.surface_wave_amplitude_m;
  double max_delay = 0.0;
  for (const auto& t : cfg.taps) max_delay = std::max(max_delay, t.delay_s);
  const double max_breathe =
      wave_amp > 0.0 ? 2.0 * wave_amp * 6.0 / cfg.sound_speed_mps : 0.0;
  const auto extra =
      static_cast<std::size_t>(std::ceil((max_delay + max_breathe) * fs)) + 2;
  rvec out(tx.size() + extra, 0.0);
  for (std::size_t p = 0; p < cfg.taps.size(); ++p) {
    const auto& tap = cfg.taps[p];
    const double g = tap.gain * fade[p];
    const double d0 = tap.delay_s * fs;
    if (wave_amp > 0.0 && tap.surface_bounces > 0) {
      const double omega = common::kTwoPi / (cfg.surface_wave_period_s * fs);
      const double depth_mod = 2.0 * wave_amp * static_cast<double>(tap.surface_bounces) /
                               cfg.sound_speed_mps * fs;
      const double phi0 = 2.0 * common::kPi * static_cast<double>(p) / 7.0;
      for (std::size_t n = 0; n < tx.size(); ++n) {
        const double d = d0 + depth_mod * std::sin(omega * static_cast<double>(n) + phi0);
        const auto d_int = static_cast<std::size_t>(d);
        const double frac = d - static_cast<double>(d_int);
        out[n + d_int] += g * (1.0 - frac) * tx[n];
        out[n + d_int + 1] += g * frac * tx[n];
      }
    } else {
      const auto d_int = static_cast<std::size_t>(d0);
      const double frac = d0 - static_cast<double>(d_int);
      for (std::size_t n = 0; n < tx.size(); ++n) {
        out[n + d_int] += g * (1.0 - frac) * tx[n];
        out[n + d_int + 1] += g * frac * tx[n];
      }
    }
  }
  return out;
}

// One randomized channel: 1-12 taps with negative gains, sub-sample
// (d_int = 0) and whole-sample (frac = 0) delays, and — under swell — a
// mix of fixed and breathing taps in arbitrary order.
WaveformChannelConfig random_channel(common::Rng& rng, std::size_t set) {
  WaveformChannelConfig cfg;
  cfg.add_noise = false;
  // A power-of-two rate makes k / fs delays land on exact whole samples.
  cfg.fs_hz = set % 2 == 0 ? 131072.0 : 192000.0;
  cfg.surface_wave_amplitude_m = set % 3 == 0 ? rng.uniform(0.05, 0.6) : 0.0;
  cfg.surface_wave_period_s = rng.uniform(0.5, 8.0);
  cfg.fading_sigma_db = set % 5 == 0 ? 3.0 : 0.0;
  const auto n_taps = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t p = 0; p < n_taps; ++p) {
    PathTap tap;
    tap.surface_bounces = static_cast<int>(rng.uniform_int(0, 6));
    tap.gain = rng.uniform(-1.0, 1.0);
    const double breathe_s =
        2.0 * cfg.surface_wave_amplitude_m * tap.surface_bounces / cfg.sound_speed_mps;
    switch (rng.uniform_int(0, 3)) {
      case 0:  // under one sample
        tap.delay_s = rng.uniform() / cfg.fs_hz;
        break;
      case 1:  // whole samples (exact at the power-of-two rate)
        tap.delay_s = static_cast<double>(rng.uniform_int(0, 300)) / cfg.fs_hz;
        break;
      default:
        tap.delay_s = rng.uniform(0.0, 4e-3);
        break;
    }
    tap.delay_s += breathe_s;  // keep breathing taps at or above zero delay
    cfg.taps.push_back(tap);
  }
  return cfg;
}

TEST(ApplyTapsOracle, GatherMatchesScatterOverRandomTapSets) {
  common::Rng rng(2024);
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 17, 1023, 1024, 1025, 5000};
  std::size_t breathing_sets = 0;
  for (std::size_t set = 0; set < 240; ++set) {
    const WaveformChannelConfig cfg = random_channel(rng, set);
    const std::size_t n = lengths[set % std::size(lengths)];
    rvec tx(n);
    for (auto& v : tx) v = rng.gaussian();
    const std::uint64_t seed = 77 + set;
    // The fading factors the constructor draws, replayed on the same seed.
    std::vector<double> fade(cfg.taps.size(), 1.0);
    common::Rng fade_rng(seed);
    if (cfg.fading_sigma_db > 0.0)
      for (auto& f : fade)
        f = std::pow(10.0, fade_rng.gaussian(0.0, cfg.fading_sigma_db) / 20.0);
    common::Rng ch_rng(seed);
    const WaveformChannel ch(cfg, ch_rng);
    ASSERT_TRUE(bytes_equal(ch.propagate_clean(tx), scatter_taps(cfg, fade, tx)))
        << "set " << set << " taps " << cfg.taps.size() << " n " << n;
    for (const auto& t : cfg.taps)
      if (cfg.surface_wave_amplitude_m > 0.0 && t.surface_bounces > 0) {
        ++breathing_sets;
        break;
      }
  }
  EXPECT_GT(breathing_sets, 40u);  // the mixed path really ran
}

// Natural-order noise synthesis: draw bin by bin, mirror the conjugate,
// then a full permuting inverse FFT.
rvec natural_order_noise(std::size_t n, double fs_hz, const NoiseConditions& cond,
                         common::Rng& rng) {
  const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(n, 2));
  cvec spec(nfft);
  const double df = fs_hz / static_cast<double>(nfft);
  for (std::size_t k = 1; k < nfft / 2; ++k) {
    const double f = static_cast<double>(k) * df;
    const double psd_pa2 = std::pow(10.0, ambient_nsd(common::Hz{f}, cond).raw() / 10.0) *
                           common::kRefPressurePa * common::kRefPressurePa;
    const double sigma = std::sqrt(psd_pa2 * df / 2.0);
    const cplx g = rng.complex_gaussian(1.0);
    spec[k] = sigma * g;
    spec[nfft - k] = std::conj(spec[k]);
  }
  dsp::fft_plan(nfft).inverse(spec.data());
  rvec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = spec[i].real() * static_cast<double>(nfft);
  return out;
}

TEST(NoiseOracle, BitReversedFillMatchesNaturalOrder) {
  NoiseConditions cond;
  cond.wind_speed_mps = 7.0;
  const std::size_t lengths[] = {1, 2, 3, 100, 1000, 1025, 40000};
  for (const std::size_t n : lengths) {
    for (const bool pending : {false, true}) {
      common::Rng lib(900 + n);
      common::Rng ref(900 + n);
      if (pending) {  // an odd Gaussian count leaves a saved normal
        lib.gaussian();
        ref.gaussian();
      }
      const rvec got =
          synthesize_ambient_noise(n, common::SampleRateHz{96000.0}, cond, lib);
      ASSERT_TRUE(bytes_equal(got, natural_order_noise(n, 96000.0, cond, ref)))
          << "n " << n << " pending " << pending;
      ASSERT_EQ(lib.gaussian(), ref.gaussian());
      ASSERT_EQ(lib.uniform(), ref.uniform());
    }
  }
}

}  // namespace
}  // namespace vab::channel
