#include "channel/noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <vector>

#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/workspace.hpp"
#include "obs/metrics.hpp"

namespace vab::channel {

namespace {
// Power-sum of dB quantities.
double db_sum(double a_db, double b_db) {
  return 10.0 * std::log10(std::pow(10.0, a_db / 10.0) + std::pow(10.0, b_db / 10.0));
}

// Interior Wenz math on raw doubles, bit-identical to the pre-units tree;
// the typed API wraps at the boundary.
double turbulence_nsd_db(double f_hz) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 17.0 - 30.0 * std::log10(f_khz);
}

double shipping_nsd_db(double f_hz, double s) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 40.0 + 20.0 * (s - 0.5) + 26.0 * std::log10(f_khz) -
         60.0 * std::log10(f_khz + 0.03);
}

double wind_nsd_db(double f_hz, double w) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return 50.0 + 7.5 * std::sqrt(std::max(w, 0.0)) + 20.0 * std::log10(f_khz) -
         40.0 * std::log10(f_khz + 0.4);
}

double thermal_nsd_db(double f_hz) {
  const double f_khz = std::max(f_hz, 1e-3) / 1000.0;
  return -15.0 + 20.0 * std::log10(f_khz);
}

double ambient_nsd_db(double f_hz, const NoiseConditions& cond) {
  double total = turbulence_nsd_db(f_hz);
  total = db_sum(total, shipping_nsd_db(f_hz, cond.shipping));
  total = db_sum(total, wind_nsd_db(f_hz, cond.wind_speed_mps));
  total = db_sum(total, thermal_nsd_db(f_hz));
  total = db_sum(total, cond.site_floor_db);
  return total;
}

// Per-bin spectral amplitudes for synthesize_ambient_noise. The Wenz NSD
// evaluation costs ~10 transcendentals per bin and depends only on
// (nfft, fs, conditions) — not on the Rng — so a thread-local cache turns
// steady-state synthesis (same scenario, trial after trial) into pure
// Gaussian draws plus one planned inverse FFT. Entries hold exactly the
// sigmas the uncached loop computed, keeping output bit-identical.
struct SigmaTable {
  std::size_t nfft = 0;
  double fs_hz = 0.0;
  NoiseConditions cond{};
  rvec sigma;  // index k in [1, nfft/2), entry 0 unused

  bool matches(std::size_t n, double fs, const NoiseConditions& c) const {
    return nfft == n && fs_hz == fs && cond.shipping == c.shipping &&
           cond.wind_speed_mps == c.wind_speed_mps &&
           cond.site_floor_db == c.site_floor_db;
  }
};

const rvec& sigma_table(std::size_t nfft, double fs_hz, const NoiseConditions& cond) {
  static const obs::Counter hits = obs::counter("channel.noise.sigma_hits");
  static const obs::Counter misses = obs::counter("channel.noise.sigma_misses");
  thread_local std::vector<SigmaTable> cache;
  for (auto& t : cache) {
    if (t.matches(nfft, fs_hz, cond)) {
      hits.inc();
      return t.sigma;
    }
  }
  misses.inc();
  if (cache.size() >= 8) cache.clear();  // bound memory; rebuilds amortize
  SigmaTable t;
  t.nfft = nfft;
  t.fs_hz = fs_hz;
  t.cond = cond;
  t.sigma.assign(nfft / 2, 0.0);
  const double df = fs_hz / static_cast<double>(nfft);
  for (std::size_t k = 1; k < nfft / 2; ++k) {
    const double f = static_cast<double>(k) * df;
    // NSD in dB re 1 uPa^2/Hz -> Pa^2/Hz.
    const double psd_pa2 = std::pow(10.0, ambient_nsd_db(f, cond) / 10.0) *
                           common::kRefPressurePa * common::kRefPressurePa;
    t.sigma[k] = std::sqrt(psd_pa2 * df / 2.0);
  }
  cache.push_back(std::move(t));
  return cache.back().sigma;
}
}  // namespace

common::Db turbulence_nsd(common::Hz f) { return common::Db{turbulence_nsd_db(f.raw())}; }

common::Db shipping_nsd(common::Hz f, double shipping_factor) {
  return common::Db{shipping_nsd_db(f.raw(), shipping_factor)};
}

common::Db wind_nsd(common::Hz f, double wind_speed_mps) {
  return common::Db{wind_nsd_db(f.raw(), wind_speed_mps)};
}

common::Db thermal_nsd(common::Hz f) { return common::Db{thermal_nsd_db(f.raw())}; }

common::Db ambient_nsd(common::Hz f, const NoiseConditions& cond) {
  return common::Db{ambient_nsd_db(f.raw(), cond)};
}

common::Db noise_level(common::Hz f, common::Hz bw, const NoiseConditions& cond) {
  if (bw.raw() <= 0.0) throw std::invalid_argument("bandwidth must be > 0");
  return common::Db{ambient_nsd_db(f.raw(), cond) + 10.0 * std::log10(bw.raw())};
}

rvec synthesize_ambient_noise(std::size_t n, common::SampleRateHz fs,
                              const NoiseConditions& cond, common::Rng& rng) {
  rvec out;
  synthesize_ambient_noise(n, fs, cond, rng, out);
  return out;
}

void synthesize_ambient_noise(std::size_t n, common::SampleRateHz fs,
                              const NoiseConditions& cond, common::Rng& rng, rvec& out) {
  const double fs_hz = fs.raw();
  if (n == 0) {
    out.clear();
    return;
  }
  if (!(std::isfinite(fs_hz) && fs_hz > 0.0))
    throw std::invalid_argument("sample rate must be finite and > 0");

  const std::size_t nfft = dsp::next_pow2(std::max<std::size_t>(n, 2));
  auto spec_l = dsp::Workspace::local().take_c(nfft);
  cvec& spec = *spec_l;

  // Hermitian spectrum with per-bin amplitude from the Wenz NSD (cached).
  // PSD [Pa^2/Hz] -> per-bin variance = PSD * df; split across +/- bins.
  // Bins 1..half-1 are drawn in natural order into `bins`, then spec is
  // written front to back in bit-reversed order (slot p holds bin
  // bitrev(p)) so the inverse FFT below skips its permutation pass. The
  // values are the ones the natural-order fill produced, draw for draw;
  // the gather reads the half-size bin buffer at random instead of
  // scattering two writes per bin across the full spectrum.
  const rvec& sigma = sigma_table(nfft, fs_hz, cond);
  const dsp::FftPlan& plan = dsp::fft_plan(nfft);
  const std::size_t half = nfft / 2;
  auto bins_l = dsp::Workspace::local().take_c(half);
  cvec& bins = *bins_l;
  rng.fill_complex_gaussian(bins.data() + 1, half - 1);
  for (std::size_t k = 1; k < half; ++k) bins[k] = sigma[k] * bins[k];
  // Slots 0 and 1 hold DC and Nyquist (real-valued; negligible energy,
  // kept zero by the lease); every other slot's bin is neither.
  for (std::size_t p = 2; p < nfft; ++p) {
    const std::size_t k = plan.bitrev(p);
    spec[p] = k < half ? bins[k] : std::conj(bins[nfft - k]);
  }

  // With the inverse FFT's 1/N normalization the per-sample variance is
  // sum_k |S_k|^2 / N^2; scaling by N lands it at sum_k PSD*df, the total
  // band power.
  plan.inverse_bitreversed(spec.data());
  out.resize(n);
  const double scale = static_cast<double>(nfft);
  for (std::size_t i = 0; i < n; ++i) out[i] = spec[i].real() * scale;
}

}  // namespace vab::channel
