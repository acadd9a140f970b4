// Bit-identity matrix for the hand-vectorized batch kernels: every kernel,
// dispatched at whatever ISA this binary compiled in, must produce outputs
// byte-identical to the forced width-1 scalar reference — across odd
// lengths, remainder tails, unaligned heads and the public entry points
// that route through the kernels (FIR decimation, correlation, FFT,
// mixers). The comparisons are memcmp, not EXPECT_DOUBLE_EQ: the contract
// is identical bits, not tolerable error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd/simd.hpp"

namespace vab {
namespace {

using dsp::simd::Isa;

// Lengths chosen to hit empty input, sub-width, exactly one vector, one
// vector plus remainder, the 2x-unrolled main loop and long tails.
const std::vector<std::size_t> kLengths = {0,  1,  2,  3,   7,   8,   15,  16,
                                           17, 31, 32, 33,  63,  64,  65,  100,
                                           127, 128, 129, 255, 256, 1000};

cvec random_cvec(common::Rng& rng, std::size_t n) {
  cvec v(n);
  for (auto& x : v) x = rng.complex_gaussian(1.0);
  return v;
}

rvec random_rvec(common::Rng& rng, std::size_t n) {
  rvec v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

bool bytes_equal(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

bool bytes_equal(const rvec& a, const rvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs `fn` once under forced-scalar dispatch and once under the
/// automatically resolved ISA, returning (scalar, dispatched) results.
template <typename Fn>
auto scalar_vs_dispatched(Fn&& fn) {
  EXPECT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  auto scalar = fn();
  dsp::simd::reset_isa();
  auto dispatched = fn();
  return std::make_pair(std::move(scalar), std::move(dispatched));
}

class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override { dsp::simd::reset_isa(); }
};

TEST_F(SimdKernels, DispatchReportsACoherentIsa) {
  const Isa active = dsp::simd::active_isa();
  EXPECT_STRNE(dsp::simd::isa_name(active), "unknown");
  // The active ISA can never exceed what was compiled in.
  if (dsp::simd::compiled_isa() == Isa::kScalar) {
    EXPECT_EQ(active, Isa::kScalar);
  }
  // Forcing scalar always succeeds and sticks until reset.
  EXPECT_TRUE(dsp::simd::force_isa(Isa::kScalar));
  EXPECT_EQ(dsp::simd::active_isa(), Isa::kScalar);
  dsp::simd::reset_isa();
  EXPECT_EQ(dsp::simd::active_isa(), active);
}

TEST_F(SimdKernels, ForcingUncompiledIsaFails) {
  if (dsp::simd::compiled_isa() != Isa::kAvx2) {
    EXPECT_FALSE(dsp::simd::force_isa(Isa::kAvx2));
  }
  if (dsp::simd::compiled_isa() != Isa::kNeon) {
    EXPECT_FALSE(dsp::simd::force_isa(Isa::kNeon));
  }
}

TEST_F(SimdKernels, FirDecimateMatchesScalarAcrossLengthsTapsAndFactors) {
  common::Rng rng(101);
  for (const std::size_t n : kLengths) {
    const cvec x = random_cvec(rng, n);
    for (const std::size_t n_taps : {std::size_t{1}, std::size_t{5}, std::size_t{255}}) {
      const rvec taps = random_rvec(rng, n_taps);
      for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
          auto [scalar, simd] = scalar_vs_dispatched([&] {
            cvec out;
            dsp::fir_filter_decimate(taps, x, m, offset, out);
            return out;
          });
          EXPECT_TRUE(bytes_equal(scalar, simd))
              << "n=" << n << " taps=" << n_taps << " m=" << m
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST_F(SimdKernels, SlidingCorrelateMatchesScalarNaiveAndFftPaths) {
  common::Rng rng(202);
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;
    const cvec sig = random_cvec(rng, n);
    for (const std::size_t ref_len :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{33}}) {
      if (ref_len > n) continue;
      const cvec ref = random_cvec(rng, ref_len);
      auto [scalar_naive, simd_naive] = scalar_vs_dispatched(
          [&] { return dsp::sliding_correlate_naive(sig, ref); });
      EXPECT_TRUE(bytes_equal(scalar_naive, simd_naive))
          << "naive n=" << n << " ref=" << ref_len;
      auto [scalar_auto, simd_auto] =
          scalar_vs_dispatched([&] { return dsp::sliding_correlate(sig, ref); });
      EXPECT_TRUE(bytes_equal(scalar_auto, simd_auto))
          << "auto n=" << n << " ref=" << ref_len;
    }
  }
}

TEST_F(SimdKernels, UnalignedHeadsProduceIdenticalBits) {
  // Walk the signal pointer across every 16-byte phase so AVX2's unaligned
  // loads cover all head alignments.
  common::Rng rng(303);
  const cvec sig = random_cvec(rng, 70);
  const cvec ref = random_cvec(rng, 9);
  for (std::size_t head = 0; head < 4; ++head) {
    const cvec view(sig.begin() + static_cast<std::ptrdiff_t>(head), sig.end());
    auto [scalar, simd] =
        scalar_vs_dispatched([&] { return dsp::sliding_correlate_naive(view, ref); });
    EXPECT_TRUE(bytes_equal(scalar, simd)) << "head=" << head;
  }
}

TEST_F(SimdKernels, FftForwardInverseAndConvolveMatchScalar) {
  common::Rng rng(404);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const cvec x = random_cvec(rng, n);
    auto [scalar_f, simd_f] = scalar_vs_dispatched([&] { return dsp::fft(x); });
    EXPECT_TRUE(bytes_equal(scalar_f, simd_f)) << "fft n=" << n;
    auto [scalar_i, simd_i] = scalar_vs_dispatched([&] { return dsp::ifft(x); });
    EXPECT_TRUE(bytes_equal(scalar_i, simd_i)) << "ifft n=" << n;
  }
  const rvec a = random_rvec(rng, 100);
  const rvec b = random_rvec(rng, 37);
  auto [scalar_c, simd_c] =
      scalar_vs_dispatched([&] { return dsp::fft_convolve(a, b); });
  EXPECT_TRUE(bytes_equal(scalar_c, simd_c));
  const cvec ca = random_cvec(rng, 64);
  const cvec cb = random_cvec(rng, 21);
  auto [scalar_x, simd_x] =
      scalar_vs_dispatched([&] { return dsp::fft_xcorr(ca, cb); });
  EXPECT_TRUE(bytes_equal(scalar_x, simd_x));
}

TEST_F(SimdKernels, MixersMatchFreshNcoReference) {
  // The mixers layer a tone-table cache over the kernels; compare every
  // length against a literal fresh-Nco serial loop, which is what the
  // historical code computed.
  for (const std::size_t n : kLengths) {
    common::Rng rng(505);
    const rvec pass = random_rvec(rng, n);
    const cvec base = random_cvec(rng, n);
    const double f = 18500.0;
    const double fs = 120000.0;
    const double ph = 0.7;

    rvec tone_ref(n);
    {
      dsp::Nco nco(f, fs, ph);
      for (auto& v : tone_ref) v = 0.5 * nco.next_cos();
    }
    cvec down_ref(n);
    {
      dsp::Nco nco(-f, fs, -ph);
      for (std::size_t i = 0; i < n; ++i) down_ref[i] = pass[i] * nco.next();
    }
    rvec up_ref(n);
    {
      dsp::Nco nco(f, fs, ph);
      for (std::size_t i = 0; i < n; ++i) up_ref[i] = (base[i] * nco.next()).real();
    }

    auto [scalar_t, simd_t] =
        scalar_vs_dispatched([&] { return dsp::make_tone(f, fs, n, 0.5, ph); });
    EXPECT_TRUE(bytes_equal(tone_ref, scalar_t)) << "tone n=" << n;
    EXPECT_TRUE(bytes_equal(tone_ref, simd_t)) << "tone n=" << n;

    auto [scalar_d, simd_d] =
        scalar_vs_dispatched([&] { return dsp::downconvert(pass, f, fs, ph); });
    EXPECT_TRUE(bytes_equal(down_ref, scalar_d)) << "down n=" << n;
    EXPECT_TRUE(bytes_equal(down_ref, simd_d)) << "down n=" << n;

    auto [scalar_u, simd_u] =
        scalar_vs_dispatched([&] { return dsp::upconvert(base, f, fs, ph); });
    EXPECT_TRUE(bytes_equal(up_ref, scalar_u)) << "up n=" << n;
    EXPECT_TRUE(bytes_equal(up_ref, simd_u)) << "up n=" << n;
  }
}

TEST_F(SimdKernels, ToneCacheExtensionIsBitIdenticalToFreshOscillator) {
  // A short request populates the cache; a longer one for the same carrier
  // extends the stored table via the saved oscillator state. The extension
  // must continue the exact phase recurrence a fresh Nco would run.
  const double f = 12345.0;
  const double fs = 96000.0;
  const rvec short_tone = dsp::make_tone(f, fs, 64, 1.0, 0.25);
  const rvec long_tone = dsp::make_tone(f, fs, 256, 1.0, 0.25);
  rvec ref(256);
  dsp::Nco nco(f, fs, 0.25);
  for (auto& v : ref) v = nco.next_cos();
  EXPECT_TRUE(bytes_equal(ref, long_tone));
  for (std::size_t i = 0; i < short_tone.size(); ++i)
    EXPECT_EQ(short_tone[i], long_tone[i]);
}

TEST_F(SimdKernels, EnergyAndRmsShareTheSerialReduction) {
  common::Rng rng(606);
  for (const std::size_t n : kLengths) {
    const cvec c = random_cvec(rng, n);
    const rvec r = random_rvec(rng, n);
    double ce = 0.0;
    for (const auto& v : c) ce += std::norm(v);
    double re = 0.0;
    for (const double v : r) re += v * v;
    // Reductions are never widened, so these hold at any dispatched ISA.
    EXPECT_EQ(ce, dsp::energy(c)) << "n=" << n;
    EXPECT_EQ(re, dsp::energy(r)) << "n=" << n;
    EXPECT_EQ(ce, dsp::simd::sum_norms(c.data(), c.size()));
    EXPECT_EQ(re, dsp::simd::sum_squares(r.data(), r.size()));
  }
}

TEST_F(SimdKernels, DelayTapsMatchScalarAcrossTapSetsAndLengths) {
  common::Rng rng(808);
  for (const std::size_t n : kLengths) {
    const rvec x = random_rvec(rng, n);
    for (const std::size_t n_taps : {std::size_t{1}, std::size_t{3}, std::size_t{12}}) {
      std::vector<dsp::simd::DelayTap> taps;
      std::size_t max_delay = 0;
      for (std::size_t p = 0; p < n_taps; ++p) {
        const auto delay = static_cast<std::size_t>(rng.uniform_int(0, 1500));
        taps.push_back({delay, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
        max_delay = std::max(max_delay, delay);
      }
      // Outputs span several 1024-sample blocks, with tails on both sides.
      const rvec base = random_rvec(rng, n + max_delay + 2 + n % 5);
      auto [scalar, simd] = scalar_vs_dispatched([&] {
        rvec out = base;
        dsp::simd::delay_taps(taps.data(), taps.size(), x.data(), x.size(), out.data(),
                              out.size());
        return out;
      });
      EXPECT_TRUE(bytes_equal(scalar, simd)) << "n=" << n << " taps=" << n_taps;
    }
  }
}

TEST_F(SimdKernels, NormalizedCorrelateAndFindPeakMatchScalar) {
  common::Rng rng(707);
  const cvec sig = random_cvec(rng, 300);
  const cvec ref = random_cvec(rng, 25);
  auto [scalar_n, simd_n] =
      scalar_vs_dispatched([&] { return dsp::normalized_correlate(sig, ref); });
  EXPECT_TRUE(bytes_equal(scalar_n, simd_n));
  auto [scalar_p, simd_p] =
      scalar_vs_dispatched([&] { return dsp::find_peak(sig, ref, 0.0); });
  ASSERT_EQ(scalar_p.has_value(), simd_p.has_value());
  if (scalar_p) {
    EXPECT_EQ(scalar_p->index, simd_p->index);
    EXPECT_EQ(scalar_p->value, simd_p->value);
    EXPECT_EQ(scalar_p->raw, simd_p->raw);
  }
}

}  // namespace
}  // namespace vab
