#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace vab::common {

MersenneTwister64::MersenneTwister64(result_type seed) : pos_(kStateWords) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void MersenneTwister64::refill() {
  constexpr std::size_t kN = kStateWords;
  constexpr std::size_t kM = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kLower = ~kUpper;
  // (y & 1) ? a : 0 as a mask, so the loop neither branches on random bits
  // nor blocks vectorization.
  const auto twist = [](result_type lo_src, result_type hi_src, result_type far) {
    const result_type y = (lo_src & kUpper) | (hi_src & kLower);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & 0xb5026f5aa96619e9ULL);
  };
  for (std::size_t k = 0; k < kN - kM; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

namespace {

// The polar method's rejection test and scale factor, as libstdc++ writes
// them. A returned normal is `v * stddev + mean` there, i.e. v + 0.0 for the
// standard distribution, which turns the -0.0 of an r2 == 1 draw into +0.0.
bool polar_rejects(double r2) { return (r2 > 1.0) | (r2 == 0.0); }
double polar_mult(double r2) { return std::sqrt(-2 * std::log(r2) / r2); }

}  // namespace

double Rng::gaussian() {
  if (has_saved_) {
    has_saved_ = false;
    return saved_ + 0.0;
  }
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (polar_rejects(r2));
  const double mult = polar_mult(r2);
  saved_ = x * mult;
  has_saved_ = true;
  return y * mult + 0.0;
}

cplx Rng::complex_gaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {s * gaussian(), s * gaussian()};
}

void Rng::fill_uniform(double* out, std::size_t n, double lo, double hi) {
  const double span = hi - lo;
  while (n > 0) {
    if (engine_.pos_ >= MersenneTwister64::kStateWords) engine_.refill();
    const std::size_t pos = engine_.pos_;
    const std::size_t m = std::min(MersenneTwister64::kStateWords - pos, n);
    const std::uint64_t* words = engine_.state_ + pos;
    for (std::size_t j = 0; j < m; ++j)
      out[j] = lo + span * canonical(MersenneTwister64::temper(words[j]));
    engine_.pos_ = pos + m;
    out += m;
    n -= m;
  }
}

void Rng::fill_complex_gaussian(cplx* out, std::size_t n) {
  const double s = std::sqrt(1.0 / 2.0);
  // Scalar calls take normals in order, real part first, and each accepted
  // polar attempt yields two: y * mult, then x * mult. With no saved normal
  // pending, attempt j fills out[j] as (y, x). With one pending, every
  // output pairs the previous attempt's x with this attempt's y, and the
  // last x is left saved. Each attempt yields exactly one output either way.
  const bool shifted = has_saved_;
  double carry = saved_;  // shifted: raw x * mult owed to the next output
  std::size_t i = 0;
  const auto emit = [&](double x, double y, double mult) {
    if (shifted) {
      out[i++] = cplx{s * (carry + 0.0), s * (y * mult + 0.0)};
      carry = x * mult;
    } else {
      out[i++] = cplx{s * (y * mult + 0.0), s * (x * mult + 0.0)};
    }
  };

  constexpr std::size_t kMaxPairs = MersenneTwister64::kStateWords / 2;
  double xs[kMaxPairs];
  double ys[kMaxPairs];
  double r2s[kMaxPairs];
  double mults[kMaxPairs];
  std::size_t kept[kMaxPairs];
  while (i < n) {
    if (engine_.pos_ >= MersenneTwister64::kStateWords) engine_.refill();
    const std::size_t pos = engine_.pos_;
    const std::size_t pairs = (MersenneTwister64::kStateWords - pos) / 2;
    if (pairs == 0) {
      // The attempt straddles a refill: scalar path.
      const double x = 2.0 * uniform() - 1.0;
      const double y = 2.0 * uniform() - 1.0;
      const double r2 = x * x + y * y;
      if (!polar_rejects(r2)) emit(x, y, polar_mult(r2));
      continue;
    }
    // Every attempt left in this engine block at once: tempering and the
    // uniform -> [-1, 1) mapping have no dependence between attempts and
    // vectorize; only the accepted attempts reach the log.
    const std::uint64_t* words = engine_.state_ + pos;
    for (std::size_t a = 0; a < pairs; ++a) {
      const double x = 2.0 * canonical(MersenneTwister64::temper(words[2 * a])) - 1.0;
      const double y = 2.0 * canonical(MersenneTwister64::temper(words[2 * a + 1])) - 1.0;
      xs[a] = x;
      ys[a] = y;
      r2s[a] = x * x + y * y;
    }
    // Compact the accepted attempts; the tail of the chunk stays unused
    // once the output is full.
    std::size_t accepted = 0;
    for (std::size_t a = 0; a < pairs; ++a) {
      xs[accepted] = xs[a];
      ys[accepted] = ys[a];
      r2s[accepted] = r2s[a];
      kept[accepted] = a;
      accepted += polar_rejects(r2s[a]) ? 0 : 1;
    }
    const std::size_t take = std::min(accepted, n - i);
    for (std::size_t j = 0; j < take; ++j) mults[j] = polar_mult(r2s[j]);
    for (std::size_t j = 0; j < take; ++j) emit(xs[j], ys[j], mults[j]);
    // Done: stop right after the last attempt used. Otherwise the
    // rejected attempts after the last accepted one are consumed too.
    engine_.pos_ = i == n ? pos + 2 * (kept[take - 1] + 1) : pos + 2 * pairs;
  }
  if (shifted) saved_ = carry;
}

rvec Rng::gaussian_vector(std::size_t n, double stddev) {
  rvec out(n);
  for (auto& x : out) x = stddev * gaussian();
  return out;
}

bitvec Rng::random_bits(std::size_t n) {
  bitvec out(n);
  for (auto& b : out) b = coin() ? 1 : 0;
  return out;
}

}  // namespace vab::common
