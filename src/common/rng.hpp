// Deterministic random number generation for reproducible Monte-Carlo runs.
//
// Every stochastic component in the library takes an explicit Rng& so that a
// trial is fully determined by its seed. Benches derive per-trial seeds from
// a master seed with `child()` to keep trials independent yet reproducible.
//
// Stream contract: the engine is MT19937-64 and produces std::mt19937_64's
// exact word stream for the same seed; `uniform()` is libstdc++'s
// generate_canonical<double, 53> over it and `gaussian()` is libstdc++'s
// Marsaglia polar method with its saved second value. Every seeded result in
// the repo was pinned against that std::mt19937_64 + std::normal_distribution
// pair, so the transcriptions below are bit-exact, not merely equivalent in
// distribution (tests/test_rng_stream.cpp checks them against the std types).
// Owning the code lets the twist run branchless and lets
// `fill_complex_gaussian` batch the polar method's uniform draws.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>

#include "common/types.hpp"

namespace vab::common {

/// MT19937-64: std::mt19937_64's seeding, twist and tempering, with the
/// twist's per-word branch on the low bit replaced by a mask. Satisfies
/// UniformRandomBitGenerator, so std distributions (integer, binomial) run
/// on it unchanged.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit MersenneTwister64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateWords) refill();
    return temper(state_[pos_++]);
  }

 private:
  friend class Rng;

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Generates the next 312 untempered words and rewinds to the first.
  void refill();

  result_type state_[kStateWords];
  std::size_t pos_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// SplitMix64 finalizer: a bijective avalanche mix on 64 bits.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Derives an independent child generator; `stream` distinguishes children.
  ///
  /// Derivation contract:
  ///   child_seed = mix64(seed + mix64(stream + GAMMA)),  GAMMA = 2^64/phi.
  ///
  /// The stream index is avalanche-mixed *before* being combined with the
  /// parent seed. The earlier derivation added `GAMMA * (stream + 1)` raw,
  /// which left child seeds of one parent on an arithmetic lattice: two
  /// parents whose seeds differ by a multiple of GAMMA (which nested
  /// child() chains can produce) would generate colliding child streams at
  /// a fixed stream offset. With the inner mix, a collision between
  /// children of distinct parents requires mix64(i + GAMMA) - mix64(j +
  /// GAMMA) to equal the parent-seed difference — a birthday-bound (~2^-64
  /// per pair) event rather than a structural one. Consequences:
  ///  - children of one parent are pairwise distinct (mix64 is bijective),
  ///  - grandchild streams child(i).child(j) are decorrelated from each
  ///    other and from direct children (tested by chi-squared uniformity
  ///    in test_common.cpp),
  ///  - the derivation is pure: child() never advances the parent engine,
  ///    so trial fan-out order cannot affect any stream's draws.
  Rng child(std::uint64_t stream) const {
    return Rng(mix64(seed_ + mix64(stream + 0x9e3779b97f4a7c15ULL)));
  }

  /// Uniform double in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Writes out[i] = uniform(lo, hi) for i in [0, n): the same values and
  /// the same final generator state as n scalar calls, mapped a block of
  /// engine words at a time.
  void fill_uniform(double* out, std::size_t n, double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal sample.
  double gaussian();

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  cplx complex_gaussian(double variance = 1.0);

  /// Writes out[i] = complex_gaussian(1.0) for i in [0, n): the same values
  /// and the same final generator state as n scalar calls, with the polar
  /// method's uniform pairs computed a block of engine words at a time.
  void fill_complex_gaussian(cplx* out, std::size_t n);

  /// Bernoulli with probability p of true.
  bool coin(double p = 0.5) { return uniform() < p; }

  /// Vector of standard normal samples.
  rvec gaussian_vector(std::size_t n, double stddev = 1.0);

  /// Vector of random bits.
  bitvec random_bits(std::size_t n);

  MersenneTwister64& engine() { return engine_; }

  /// The uniform double `uniform()` makes of one engine word: libstdc++'s
  /// generate_canonical<double, 53>, i.e. double(u) / 2^64, clamped to
  /// nextafter(1, 0) when double(u) rounds up to 2^64. Written without a
  /// branch so batch loops vectorize: the clamp happens on the integer (a u
  /// whose top 54 bits are all set, the only ones that round to 2^64, has
  /// bit 10 cleared, which makes it round down to 2^64 - 2^11), and double(u)
  /// is assembled from 32-bit halves h, each exact as (2^52 + h) - 2^52, so
  /// the sum rounds once, like the direct conversion.
  static double canonical(std::uint64_t u) {
    u &= ~((((u >> 10) + 1) >> 54) << 10);
    const auto half = [](std::uint64_t h) {
      return std::bit_cast<double>(0x4330000000000000ULL | h) - 0x1p52;
    };
    return (half(u >> 32) * 0x1p32 + half(u & 0xffffffffULL)) * 0x1p-64;
  }

 private:
  MersenneTwister64 engine_;
  std::uint64_t seed_;
  double saved_ = 0.0;  ///< polar method's second value, valid if has_saved_
  bool has_saved_ = false;
};

}  // namespace vab::common
