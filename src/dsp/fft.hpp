// Planned radix-2 FFT and FFT-based convolution/correlation.
//
// Self-contained (no external FFT dependency): iterative in-place
// decimation-in-time, O(n log n) for power-of-two sizes. All transforms run
// through an FftPlan — per-size precomputed twiddle-factor tables and
// bit-reversal permutation — held in one process-wide plan cache, so repeated
// transforms of the same size (the Monte-Carlo steady state) do no trig, no
// table rebuilding and no allocation, and worker threads share one copy of
// each table. Planned transforms are bit-identical to the historical direct
// implementation: the tables are filled with the exact same recurrence the
// unplanned code evaluated inline, and the butterflies run on the same
// inputs and twiddles, only in a cache-friendlier order.
//
// Non-power-of-two inputs are handled by the convolution helpers via
// zero-padding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace vab::dsp {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Precomputed transform of one power-of-two size: bit-reversal permutation
/// plus per-stage twiddle tables for both directions. Plans are immutable
/// after construction and safe to share across threads read-only, which is
/// how the cache below hands them out.
class FftPlan {
 public:
  /// `n` must be a power of two (throws std::invalid_argument otherwise).
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward transform of `x[0..size())`.
  void forward(cplx* x) const;
  /// In-place inverse transform (includes 1/N normalization).
  void inverse(cplx* x) const;
  /// `inverse` for input already stored in bit-reversed order, i.e. bin k
  /// at x[bitrev(k)]: the same stages and scaling without the permutation
  /// pass, for producers that can write the spectrum there directly.
  void inverse_bitreversed(cplx* x) const;

  /// Bit-reversed index of `i` (i < size()).
  std::size_t bitrev(std::size_t i) const { return bitrev_[i]; }

 private:
  void permute(cplx* x) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversed index of each i
  // Per-stage twiddle factors, stages len=2,4,...,n concatenated; the table
  // for stage `len` starts at offset len/2 - 1 and holds len/2 entries.
  cvec tw_fwd_;
  cvec tw_inv_;
};

/// The process's one plan for size `n` (a power of two), built on first use
/// and shared read-only by every thread: all callers get the same address,
/// a hit takes no lock, and the plan lives until exit. Cache hits/misses are
/// counted in the obs metrics `dsp.fft.plan_hits` / `dsp.fft.plan_misses`.
const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT; `x.size()` must be a power of two.
void fft_inplace(cvec& x);

/// In-place inverse FFT (includes 1/N normalization).
void ifft_inplace(cvec& x);

/// Out-of-place forward FFT, zero-padding to the next power of two.
cvec fft(const cvec& x);

/// Out-of-place inverse FFT; `x.size()` must be a power of two.
cvec ifft(const cvec& x);

/// FFT of a real signal (returns full complex spectrum, padded to pow2).
/// Computed with the half-size real-packing trick: an N-point real FFT costs
/// one N/2-point complex FFT plus an O(N) unpack.
cvec fft_real(const rvec& x);

/// Half-size real FFT into a caller-provided buffer: `out` is resized to
/// next_pow2(x.size()) and holds the full Hermitian spectrum.
void fft_real(const rvec& x, cvec& out);

/// Linear convolution of two real signals via FFT; result length a+b-1.
rvec fft_convolve(const rvec& a, const rvec& b);

/// Linear cross-correlation r[k] = sum_n a[n+k] b*[n] for k in
/// [-(b.size()-1), a.size()-1], returned with lag 0 at index b.size()-1.
cvec fft_xcorr(const cvec& a, const cvec& b);

}  // namespace vab::dsp
