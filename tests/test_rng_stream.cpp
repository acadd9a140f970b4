// Exact-stream conformance of common::Rng against the std types it
// reproduces: the engine against std::mt19937_64 word for word, the
// continuous draws against std::uniform_real_distribution /
// std::normal_distribution on interleaved sequences, and the batched
// fill_complex_gaussian against the scalar calls it replaces. Equality is
// bitwise throughout: a sampler that is only "close" would move every seeded
// result in the repo.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/rng.hpp"

namespace vab::common {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The generator Rng reproduces: libstdc++'s engine and distributions,
// wrapped with Rng's draw formulas.
struct StdRng {
  explicit StdRng(std::uint64_t seed) : engine(seed) {}
  double uniform() { return unit(engine); }
  double gaussian() { return normal(engine); }
  cplx complex_gaussian(double variance) {
    const double s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }
  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> normal{0.0, 1.0};
};

::testing::AssertionResult same_bits(cplx a, cplx b) {
  if (bits(a.real()) == bits(b.real()) && bits(a.imag()) == bits(b.imag()))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " vs " << b;
}

std::vector<std::uint64_t> stream_seeds() {
  const Rng root(42);
  return {0ULL,
          1ULL,
          ~0ULL,
          root.child(0).seed(),
          root.child(7).seed(),
          root.child(3).child(11).seed()};
}

// A URBG that returns one fixed 64-bit word: feeds chosen words to
// std::generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(RngStream, CanonicalMatchesGenerateCanonicalAtRoundingEdges) {
  // The words around the clamp (double(u) rounds up to 2^64 from
  // 2^64 - 2^10 on), around the 32-bit halves and the 53-bit mantissa, then
  // a sweep of random words at every magnitude.
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      0xffffffffULL,
                                      0x100000000ULL,
                                      (1ULL << 53) - 1,
                                      1ULL << 53,
                                      (1ULL << 53) + 1,
                                      1ULL << 63,
                                      (1ULL << 63) + 1024,
                                      ~0ULL - 2047,
                                      ~0ULL - 2046,
                                      ~0ULL - 1024,
                                      ~0ULL - 1023,
                                      ~0ULL - 1022,
                                      ~0ULL};
  std::mt19937_64 gen(99);
  for (int i = 0; i < 100000; ++i) words.push_back(gen() >> (i % 64));
  for (const std::uint64_t u : words) {
    FixedWord urbg{u};
    const double want = std::generate_canonical<double, 53>(urbg);
    ASSERT_EQ(bits(Rng::canonical(u)), bits(want)) << std::hex << u;
  }
}

TEST(RngStream, EngineMatchesStdMt19937_64) {
  // 10^5 words per seed span 320 block refills.
  for (const std::uint64_t seed : stream_seeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t got = rng.engine()();
      const std::uint64_t want = ref();
      ASSERT_EQ(got, want) << "seed " << seed << " word " << i;
    }
  }
}

TEST(RngStream, InterleavedDrawsMatchStdDistributions) {
  // A scripted mix of every draw kind, with odd Gaussian counts so the
  // polar method's saved value is pending across other draws.
  for (const std::uint64_t seed : stream_seeds()) {
    Rng rng(seed);
    StdRng ref(seed);
    std::mt19937 script(static_cast<std::uint32_t>(seed ^ (seed >> 32)));
    for (int step = 0; step < 4000; ++step) {
      const auto op = static_cast<unsigned>(script() % 9);
      const std::size_t count = 1 + 2 * static_cast<std::size_t>(script() % 4);  // odd
      switch (op) {
        case 0:
          for (std::size_t k = 0; k < count; ++k)
            ASSERT_EQ(bits(rng.uniform()), bits(ref.uniform())) << step;
          break;
        case 1:
          for (std::size_t k = 0; k < count; ++k)
            ASSERT_EQ(bits(rng.gaussian()), bits(ref.gaussian())) << step;
          break;
        case 2:
          ASSERT_EQ(bits(rng.gaussian(1.5, 0.25)), bits(1.5 + 0.25 * ref.gaussian()));
          break;
        case 3:
          ASSERT_TRUE(same_bits(rng.complex_gaussian(2.0), ref.complex_gaussian(2.0)));
          break;
        case 4:
          ASSERT_EQ(rng.coin(0.3), ref.uniform() < 0.3) << step;
          break;
        case 5: {
          std::uniform_int_distribution<std::int64_t> d(-5, 1000);
          ASSERT_EQ(rng.uniform_int(-5, 1000), d(ref.engine)) << step;
          break;
        }
        case 6: {
          std::binomial_distribution<std::size_t> a(200, 0.01);
          std::binomial_distribution<std::size_t> b(200, 0.01);
          ASSERT_EQ(a(rng.engine()), b(ref.engine)) << step;
          break;
        }
        case 7: {
          const rvec v = rng.gaussian_vector(count, 2.0);
          for (const double x : v) ASSERT_EQ(bits(x), bits(2.0 * ref.gaussian()));
          break;
        }
        default: {
          std::vector<cplx> batch(count * 37);
          rng.fill_complex_gaussian(batch.data(), batch.size());
          for (const cplx& g : batch)
            ASSERT_TRUE(same_bits(g, ref.complex_gaussian(1.0))) << step;
          break;
        }
      }
    }
    ASSERT_EQ(rng.engine()(), ref.engine()) << "seed " << seed;
  }
}

TEST(RngStream, FillComplexGaussianEqualsScalarCalls) {
  const std::size_t sizes[] = {0, 1, 155, 156, 157, 311, 312, 313, 65535};
  // Offsets put the engine at the start, middle, odd and last word of a
  // block, so fills start on both pair parities and straddle refills.
  const std::size_t offsets[] = {0, 1, 2, 155, 310, 311};
  for (const std::size_t n : sizes) {
    for (const bool pending : {false, true}) {
      for (const std::size_t offset : offsets) {
        Rng batched(0xabcdef ^ n);
        Rng scalar(0xabcdef ^ n);
        for (std::size_t k = 0; k < offset; ++k) {
          batched.engine()();
          scalar.engine()();
        }
        if (pending) {
          ASSERT_EQ(bits(batched.gaussian()), bits(scalar.gaussian()));
        }
        std::vector<cplx> out(n);
        batched.fill_complex_gaussian(out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_TRUE(same_bits(out[i], scalar.complex_gaussian(1.0)))
              << "n " << n << " pending " << pending << " offset " << offset
              << " i " << i;
        // Same position afterwards, including any saved second normal.
        ASSERT_EQ(bits(batched.gaussian()), bits(scalar.gaussian()));
        ASSERT_EQ(bits(batched.uniform()), bits(scalar.uniform()));
        ASSERT_EQ(batched.engine()(), scalar.engine()());
      }
    }
  }
}

TEST(RngStream, StateStaysEngineSized) {
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64) + 32);
}

}  // namespace
}  // namespace vab::common
