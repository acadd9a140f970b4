// Hand-vectorized batch kernels for the DSP hot loops, dispatched at runtime
// over the ISAs compiled into the binary (AVX2 / NEON / scalar).
//
// Bit-identity contract: every kernel vectorizes across *independent outputs*
// (decimated FIR outputs, correlation lags, FFT butterflies within a stage,
// mixer samples), never across a reduction axis, so each SIMD lane executes
// exactly the scalar sequence of IEEE-754 operations for its output.
// Remainder tails reuse the same kernel templates instantiated at width 1
// (arch_scalar.hpp). Seeded results are therefore bit-identical on every ISA
// and with dispatch forced to scalar — unlike the VAB_NATIVE escape hatch,
// this path is on by default and gated in CI (see tests/test_simd_kernels.cpp
// and the simd-identity CI job).
//
// Reductions that fold many inputs into one accumulator (`sum_squares`,
// `sum_norms`) keep the historical serial order and are deliberately *not*
// widened: reassociating the accumulator would change the result bits. They
// live here so energy()/rms() share one reduction implementation.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp::simd {

enum class Isa { kScalar, kAvx2, kNeon };

/// Widest instruction set compiled into this binary (VAB_SIMD at configure
/// time; AVX2 on x86-64 and NEON on aarch64 under the default "auto").
Isa compiled_isa();

/// Instruction set the kernels currently dispatch to: `compiled_isa()`
/// downgraded by a runtime CPU check and the VAB_SIMD environment variable
/// ("scalar" forces the width-1 reference path), or whatever `force_isa`
/// selected. The resolved name is recorded in the obs run manifest under
/// "simd_isa".
Isa active_isa();

const char* isa_name(Isa isa);

/// Forces dispatch to `isa` (tests and A/B benches). Returns false — and
/// changes nothing — when the requested ISA is not available in this
/// binary or on this CPU.
bool force_isa(Isa isa);

/// Returns to automatic resolution (CPU check + VAB_SIMD env var).
void reset_isa();

/// out[j] = sum_{k < n_taps} taps[k] * x[i_first + j*m - k], j in [0, n_out).
/// Full-window outputs only: the caller guarantees i_first + 1 >= n_taps
/// (ramp-up outputs that read the implicit zero history stay on the caller's
/// guarded loop).
void fir_decimate(const double* taps, std::size_t n_taps, const cplx* x,
                  std::size_t i_first, std::size_t m, cplx* out,
                  std::size_t n_out);

/// out[k] = sum_{n < ref_len} sig[k+n] * conj(ref[n]), k in [0, n_out).
void ccorr_dot(const cplx* sig, const cplx* ref, std::size_t ref_len, cplx* out,
               std::size_t n_out);

/// a[i] *= b[i] (spectral products in the overlap-save/FFT paths).
void cmul_inplace(cplx* a, const cplx* b, std::size_t n);

/// x[i] *= s (inverse-FFT 1/n normalization).
void cscale_inplace(cplx* x, double s, std::size_t n);

/// All Danielson-Lanczos stages of a radix-2 DIT FFT over `n` (a power of
/// two) already bit-reversed samples; `twiddle` is the FftPlan per-stage
/// table with stage `len` starting at offset len/2 - 1. The butterflies run
/// cache-blocked and two stages at a time, with the bits of the plain
/// stage-by-stage loop.
void fft_stages(cplx* x, std::size_t n, const cplx* twiddle);

/// out[i] = x[i] * tone[i] (real passband sample times complex tone).
void mix_real_tone(const double* x, const cplx* tone, cplx* out, std::size_t n);

/// out[i] = Re(x[i] * tone[i]) (upconversion to a real passband).
void mix_to_real(const cplx* x, const cplx* tone, double* out, std::size_t n);

/// out[i] = amplitude * tone[i].real().
void tone_real(const cplx* tone, double amplitude, double* out, std::size_t n);

/// One static fractional-delay tap of a propagation channel: output m takes
/// `prev * x[m - delay - 1] + now * x[m - delay]` (linear interpolation
/// between whole-sample delays `delay` and `delay + 1`).
struct DelayTap {
  std::size_t delay;
  double now;   ///< gain * (1 - frac)
  double prev;  ///< gain * frac
};

/// Adds the taps to `out` in gather form: for every output m in [0, n_out)
/// and every tap in order,
///   out[m] = (out[m] + prev * x[m - delay - 1]) + now * x[m - delay],
/// a term dropping out where its x index leaves [0, n_x). That is the
/// per-output operation order of the scatter loop
///   for n: out[n + delay] += now * x[n]; out[n + delay + 1] += prev * x[n]
/// run tap after tap, so the result bits are the same; the gather form
/// vectorizes across outputs and walks `out` in L1-sized blocks, each
/// visited by every tap before moving on. The caller guarantees
/// delay + n_x < n_out for every tap.
void delay_taps(const DelayTap* taps, std::size_t n_taps, const double* x,
                std::size_t n_x, double* out, std::size_t n_out);

/// Serial-order reductions — the one accumulation implementation behind the
/// energy()/rms() wrappers in dsp/correlate.hpp. Identical on every ISA by
/// construction (never widened; see the header comment).
double sum_squares(const double* x, std::size_t n);
double sum_norms(const cplx* x, std::size_t n);

}  // namespace vab::dsp::simd
