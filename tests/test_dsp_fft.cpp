// FFT correctness against a direct DFT, convolution and correlation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd/simd.hpp"

namespace vab::dsp {
namespace {

cvec direct_dft(const cvec& x) {
  const std::size_t n = x.size();
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{};
    for (std::size_t t = 0; t < n; ++t)
      acc += x[t] * std::exp(cplx{0.0, -common::kTwoPi * static_cast<double>(k * t) /
                                            static_cast<double>(n)});
    out[k] = acc;
  }
  return out;
}

TEST(Fft, Pow2Helpers) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(255));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Fft, MatchesDirectDft) {
  common::Rng rng(1);
  cvec x(64);
  for (auto& v : x) v = rng.complex_gaussian();
  const cvec ref = direct_dft(x);
  const cvec got = fft(x);
  for (std::size_t k = 0; k < x.size(); ++k)
    EXPECT_NEAR(std::abs(got[k] - ref[k]), 0.0, 1e-9) << "bin " << k;
}

TEST(Fft, InverseRoundTrip) {
  common::Rng rng(2);
  cvec x(256);
  for (auto& v : x) v = rng.complex_gaussian();
  const cvec y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(Fft, ParsevalHolds) {
  common::Rng rng(3);
  cvec x(512);
  for (auto& v : x) v = rng.complex_gaussian();
  double time_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  const cvec spec = fft(x);
  double freq_e = 0.0;
  for (const auto& v : spec) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e, 1e-6 * time_e);
}

TEST(Fft, ToneLandsInCorrectBin) {
  const std::size_t n = 1024;
  cvec x(n);
  const std::size_t bin = 37;
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::exp(cplx{0.0, common::kTwoPi * static_cast<double>(bin * t) /
                              static_cast<double>(n)});
  const cvec spec = fft(x);
  std::size_t best = 0;
  for (std::size_t k = 1; k < n; ++k)
    if (std::abs(spec[k]) > std::abs(spec[best])) best = k;
  EXPECT_EQ(best, bin);
  EXPECT_NEAR(std::abs(spec[bin]), static_cast<double>(n), 1e-6);
}

TEST(Fft, NonPow2InputIsZeroPadded) {
  cvec x(100, cplx{1.0, 0.0});
  const cvec spec = fft(x);
  EXPECT_EQ(spec.size(), 128u);
}

TEST(Fft, ThrowsOnNonPow2Inplace) {
  cvec x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(FftConvolve, MatchesDirectConvolution) {
  const rvec a{1, 2, 3, 4};
  const rvec b{0.5, -1, 2};
  const rvec got = fft_convolve(a, b);
  ASSERT_EQ(got.size(), a.size() + b.size() - 1);
  rvec ref(got.size(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) ref[i + j] += a[i] * b[j];
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(got[i], ref[i], 1e-10);
}

TEST(FftPlan, MatchesDirectDftAcrossSizes) {
  common::Rng rng(10);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{128}, std::size_t{512}}) {
    cvec x(n);
    for (auto& v : x) v = rng.complex_gaussian();
    const cvec ref = direct_dft(x);
    cvec got = x;
    fft_plan(n).forward(got.data());
    double ref_scale = 0.0;
    for (const auto& v : ref) ref_scale = std::max(ref_scale, std::abs(v));
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_LE(std::abs(got[k] - ref[k]), 1e-9 * std::max(ref_scale, 1.0))
          << "n=" << n << " bin " << k;
  }
}

TEST(FftPlan, DegenerateSizeOne) {
  // N=1 is the identity transform in both directions.
  cvec x{cplx{3.5, -1.25}};
  fft_plan(1).forward(x.data());
  EXPECT_EQ(x[0], (cplx{3.5, -1.25}));
  fft_plan(1).inverse(x.data());
  EXPECT_EQ(x[0], (cplx{3.5, -1.25}));
}

TEST(FftPlan, ThrowsOnNonPow2) {
  EXPECT_THROW(FftPlan(100), std::invalid_argument);
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

TEST(FftPlan, CachedPlanBitIdenticalToFreshPlan) {
  common::Rng rng(11);
  cvec x(256);
  for (auto& v : x) v = rng.complex_gaussian();
  // Repeated transforms through the process-wide cache and a freshly built
  // plan must agree bit-for-bit: the cache changes where the twiddles live,
  // never their values.
  cvec cached1 = x, cached2 = x, fresh = x;
  fft_plan(256).forward(cached1.data());
  fft_plan(256).forward(cached2.data());
  FftPlan(256).forward(fresh.data());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(cached1[k], cached2[k]) << "bin " << k;
    EXPECT_EQ(cached1[k], fresh[k]) << "bin " << k;
  }
}

// FNV-1a over the output bytes of forward then inverse at every
// power-of-two size 1..2^17, from one seeded input stream.
std::uint64_t transform_bits_hash() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const cvec& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(cplx); ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  common::Rng rng(17);
  for (std::size_t n = 1; n <= (std::size_t{1} << 17); n <<= 1) {
    cvec x(n);
    for (auto& v : x) v = rng.complex_gaussian();
    const FftPlan& plan = fft_plan(n);
    plan.forward(x.data());
    fold(x);
    plan.inverse(x.data());
    fold(x);
  }
  return h;
}

// The transforms' output bits, pinned to the plain stage-by-stage radix-2
// order: any reordering or fusion of the butterflies must leave every bit
// where it was, on the dispatched ISA and the scalar reference alike.
TEST(FftPlan, TransformBitsPinned) {
  constexpr std::uint64_t kPinned = 0x7a59130085a884f7ULL;
  EXPECT_EQ(transform_bits_hash(), kPinned) << "dispatch " << simd::isa_name(simd::active_isa());
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  EXPECT_EQ(transform_bits_hash(), kPinned) << "forced scalar";
  simd::reset_isa();
}

TEST(FftPlan, InverseRoundTripInPlace) {
  common::Rng rng(12);
  cvec x(1024);
  for (auto& v : x) v = rng.complex_gaussian();
  cvec y = x;
  const FftPlan& plan = fft_plan(1024);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(FftPlan, InverseBitreversedEqualsInverseOfPermutedInput) {
  common::Rng rng(14);
  for (std::size_t n = 2; n <= (std::size_t{1} << 17); n <<= 1) {
    cvec x(n);
    for (auto& v : x) v = rng.complex_gaussian();
    const FftPlan& plan = fft_plan(n);
    cvec natural = x;
    plan.inverse(natural.data());
    cvec permuted(n);
    for (std::size_t k = 0; k < n; ++k) permuted[plan.bitrev(k)] = x[k];
    plan.inverse_bitreversed(permuted.data());
    ASSERT_EQ(std::memcmp(natural.data(), permuted.data(), n * sizeof(cplx)), 0) << n;
  }
}

TEST(FftReal, MatchesComplexFftAcrossSizes) {
  common::Rng rng(13);
  // Non-power-of-two and degenerate lengths zero-pad exactly like fft().
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{100}, std::size_t{360}, std::size_t{1024}}) {
    rvec x(n);
    for (auto& v : x) v = rng.gaussian();
    cvec xc(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) xc[i] = cplx{x[i], 0.0};
    const cvec ref = fft(xc);
    const cvec got = fft_real(x);
    ASSERT_EQ(got.size(), ref.size()) << "n=" << n;
    double ref_scale = 0.0;
    for (const auto& v : ref) ref_scale = std::max(ref_scale, std::abs(v));
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_LE(std::abs(got[k] - ref[k]), 1e-9 * std::max(ref_scale, 1.0))
          << "n=" << n << " bin " << k;
  }
}

TEST(FftReal, SpectrumIsHermitian) {
  common::Rng rng(14);
  rvec x(512);
  for (auto& v : x) v = rng.gaussian();
  const cvec spec = fft_real(x);
  for (std::size_t k = 1; k < spec.size() / 2; ++k)
    EXPECT_EQ(spec[spec.size() - k], std::conj(spec[k])) << "bin " << k;
  EXPECT_EQ(spec[0].imag(), 0.0);
  EXPECT_EQ(spec[spec.size() / 2].imag(), 0.0);
}

TEST(FftXcorr, PeakAtTrueLag) {
  common::Rng rng(4);
  cvec ref(32);
  for (auto& v : ref) v = rng.complex_gaussian();
  cvec sig(128, cplx{});
  const std::size_t offset = 41;
  for (std::size_t i = 0; i < ref.size(); ++i) sig[offset + i] = ref[i];
  const cvec corr = fft_xcorr(sig, ref);
  std::size_t best = 0;
  for (std::size_t k = 1; k < corr.size(); ++k)
    if (std::abs(corr[k]) > std::abs(corr[best])) best = k;
  // Lag 0 sits at index ref.size()-1; the match is at offset.
  EXPECT_EQ(best, ref.size() - 1 + offset);
}

}  // namespace
}  // namespace vab::dsp
