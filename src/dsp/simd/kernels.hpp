// Width-generic kernel templates over an Arch (arch_scalar / arch_avx2 /
// arch_neon). Each kernel vectorizes across independent outputs — every lane
// runs the full scalar operation sequence for its own output — and hands any
// remainder tail to the ScalarArch instantiation of the same helper, so
// "scalar reference" and "SIMD remainder" are one code path.
//
// Included only by the simd_{scalar,avx2,neon}.cpp translation units, each
// compiled with exactly its ISA's flags (and -ffp-contract=off everywhere:
// a contracted FMA would change result bits and break the identity
// contract).
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/types.hpp"
#include "dsp/simd/arch_scalar.hpp"
#include "dsp/simd/simd.hpp"

namespace vab::dsp::simd::detail {

/// One decimated-FIR output lane: sum_k taps[k] * base[l*m - k] per lane l,
/// taps ascending — the streaming path's accumulation order.
template <class A>
inline typename A::V fir_lane(const double* taps, std::size_t n_taps,
                              const cplx* base, std::size_t m) {
  typename A::V acc = A::zero();
  for (std::size_t k = 0; k < n_taps; ++k)
    acc = A::add(acc, A::mul_real(A::load_stride(base - k, m),
                                  A::broadcast_real(taps[k])));
  return acc;
}

template <class A>
void fir_decimate_k(const double* taps, std::size_t n_taps, const cplx* x,
                    std::size_t i_first, std::size_t m, cplx* out,
                    std::size_t n_out) {
  std::size_t j = 0;
  // Four independent accumulator vectors per pass: the tap broadcast is
  // shared and four add chains hide the FP-add latency that a single
  // accumulator would serialize on. Per-output op order is unchanged.
  for (; j + 4 * A::kLanes <= n_out; j += 4 * A::kLanes) {
    const cplx* base = x + i_first + j * m;
    typename A::V acc0 = A::zero();
    typename A::V acc1 = A::zero();
    typename A::V acc2 = A::zero();
    typename A::V acc3 = A::zero();
    for (std::size_t k = 0; k < n_taps; ++k) {
      const typename A::R t = A::broadcast_real(taps[k]);
      const cplx* row = base - k;
      acc0 = A::add(acc0, A::mul_real(A::load_stride(row, m), t));
      acc1 = A::add(acc1, A::mul_real(A::load_stride(row + A::kLanes * m, m), t));
      acc2 = A::add(acc2, A::mul_real(A::load_stride(row + 2 * A::kLanes * m, m), t));
      acc3 = A::add(acc3, A::mul_real(A::load_stride(row + 3 * A::kLanes * m, m), t));
    }
    A::store(out + j, acc0);
    A::store(out + j + A::kLanes, acc1);
    A::store(out + j + 2 * A::kLanes, acc2);
    A::store(out + j + 3 * A::kLanes, acc3);
  }
  for (; j + A::kLanes <= n_out; j += A::kLanes)
    A::store(out + j, fir_lane<A>(taps, n_taps, x + i_first + j * m, m));
  for (; j < n_out; ++j)
    ScalarArch::store(out + j,
                      fir_lane<ScalarArch>(taps, n_taps, x + i_first + j * m, m));
}

/// One correlation-lag lane: sum_n sig[n] * conj(ref[n]) per lane. The
/// conjugate is pre-split into broadcast (re, -im) halves — cmul_bcast folds
/// the same four products in the same order as cmul(load, broadcast-of-conj),
/// it just hoists the shuffles off the element.
template <class A>
inline typename A::V ccorr_lane(const cplx* sig, const cplx* ref,
                                std::size_t ref_len) {
  typename A::V acc = A::zero();
  for (std::size_t n = 0; n < ref_len; ++n)
    acc = A::add(acc, A::cmul_bcast(A::load(sig + n),
                                    A::broadcast_real(ref[n].real()),
                                    A::broadcast_imag(-ref[n].imag())));
  return acc;
}

template <class A>
void ccorr_dot_k(const cplx* sig, const cplx* ref, std::size_t ref_len,
                 cplx* out, std::size_t n_out) {
  std::size_t k = 0;
  // Unroll by four vectors: the split conj broadcast is shared across
  // 4*kLanes lags and four add chains hide the FP-add latency; each lag
  // still owns its accumulator, summed in n order.
  for (; k + 4 * A::kLanes <= n_out; k += 4 * A::kLanes) {
    typename A::V acc0 = A::zero();
    typename A::V acc1 = A::zero();
    typename A::V acc2 = A::zero();
    typename A::V acc3 = A::zero();
    for (std::size_t n = 0; n < ref_len; ++n) {
      const typename A::R cr = A::broadcast_real(ref[n].real());
      const typename A::I ci = A::broadcast_imag(-ref[n].imag());
      acc0 = A::add(acc0, A::cmul_bcast(A::load(sig + k + n), cr, ci));
      acc1 = A::add(acc1, A::cmul_bcast(A::load(sig + k + A::kLanes + n), cr, ci));
      acc2 = A::add(acc2, A::cmul_bcast(A::load(sig + k + 2 * A::kLanes + n), cr, ci));
      acc3 = A::add(acc3, A::cmul_bcast(A::load(sig + k + 3 * A::kLanes + n), cr, ci));
    }
    A::store(out + k, acc0);
    A::store(out + k + A::kLanes, acc1);
    A::store(out + k + 2 * A::kLanes, acc2);
    A::store(out + k + 3 * A::kLanes, acc3);
  }
  for (; k + A::kLanes <= n_out; k += A::kLanes)
    A::store(out + k, ccorr_lane<A>(sig + k, ref, ref_len));
  for (; k < n_out; ++k)
    ScalarArch::store(out + k, ccorr_lane<ScalarArch>(sig + k, ref, ref_len));
}

template <class A>
void cmul_inplace_k(cplx* a, const cplx* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store(a + i, A::cmul(A::load(a + i), A::load(b + i)));
  for (; i < n; ++i)
    ScalarArch::store(a + i, ScalarArch::cmul(ScalarArch::load(a + i),
                                              ScalarArch::load(b + i)));
}

template <class A>
void cscale_inplace_k(cplx* x, double s, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store(x + i, A::mul_real(A::load(x + i), A::broadcast_real(s)));
  for (; i < n; ++i)
    ScalarArch::store(x + i, ScalarArch::mul_real(ScalarArch::load(x + i),
                                                  ScalarArch::broadcast_real(s)));
}

/// One radix-2 butterfly over kLanes adjacent (lo, hi) pairs.
template <class A>
inline void fft_butterfly(cplx* lo, cplx* hi, const cplx* tw) {
  const typename A::V u = A::load(lo);
  const typename A::V v = A::cmul(A::load(hi), A::load(tw));
  A::store(lo, A::add(u, v));
  A::store(hi, A::sub(u, v));
}

template <class A>
void fft_stages_k(cplx* x, std::size_t n, const cplx* twiddle) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const cplx* tw = twiddle + (len / 2 - 1);
    const std::size_t half = len / 2;
    if (half >= A::kLanes) {
      // half is a power of two >= kLanes, so rows split evenly: no tail.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; k += A::kLanes)
          fft_butterfly<A>(x + i + k, x + i + k + half, tw + k);
    } else {
      // Narrow early stages (len=2 under AVX2): width-1, same butterfly.
      for (std::size_t i = 0; i < n; i += len)
        for (std::size_t k = 0; k < half; ++k)
          fft_butterfly<ScalarArch>(x + i + k, x + i + k + half, tw + k);
    }
  }
}

template <class A>
void mix_real_tone_k(const double* x, const cplx* tone, cplx* out,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store(out + i, A::mul_elems(A::load(tone + i), A::load_dup_real(x + i)));
  for (; i < n; ++i)
    ScalarArch::store(out + i,
                      ScalarArch::mul_elems(ScalarArch::load(tone + i),
                                            ScalarArch::load_dup_real(x + i)));
}

template <class A>
void mix_to_real_k(const cplx* x, const cplx* tone, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store_real(out + i, A::cmul(A::load(x + i), A::load(tone + i)));
  for (; i < n; ++i)
    ScalarArch::store_real(out + i, ScalarArch::cmul(ScalarArch::load(x + i),
                                                     ScalarArch::load(tone + i)));
}

template <class A>
void tone_real_k(const cplx* tone, double amplitude, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + A::kLanes <= n; i += A::kLanes)
    A::store_real(out + i, A::mul_real(A::load(tone + i),
                                       A::broadcast_real(amplitude)));
  for (; i < n; ++i)
    ScalarArch::store_real(out + i,
                           ScalarArch::mul_real(ScalarArch::load(tone + i),
                                                ScalarArch::broadcast_real(amplitude)));
}

/// out[j] = (out[j] + prev * x_prev[j]) + now * x_now[j] for kRealLanes
/// consecutive j.
template <class A>
inline void delay_tap_step(double* out, const double* x_prev, const double* x_now,
                           typename A::D prev, typename A::D now) {
  A::store_r(out, A::add_r(A::add_r(A::load_r(out), A::mul_r(prev, A::load_r(x_prev))),
                           A::mul_r(now, A::load_r(x_now))));
}

/// One tap over n outputs that all read both of its samples.
template <class A>
void delay_tap_span(double* out, const double* x_prev, const double* x_now,
                    double prev, double now, std::size_t n) {
  const typename A::D vp = A::broadcast_real(prev);
  const typename A::D vn = A::broadcast_real(now);
  std::size_t j = 0;
  for (; j + A::kRealLanes <= n; j += A::kRealLanes)
    delay_tap_step<A>(out + j, x_prev + j, x_now + j, vp, vn);
  for (; j < n; ++j)
    delay_tap_step<ScalarArch>(out + j, x_prev + j, x_now + j, prev, now);
}

template <class A>
void delay_taps_k(const DelayTap* taps, std::size_t n_taps, const double* x,
                  std::size_t n_x, double* out, std::size_t n_out) {
  if (n_x == 0) return;
  // 8 KiB of outputs per block: it stays in L1 while every tap adds into
  // it, and each tap's input window is the block shifted by its delay.
  constexpr std::size_t kBlock = 1024;
  for (std::size_t m0 = 0; m0 < n_out; m0 += kBlock) {
    const std::size_t m1 = std::min(m0 + kBlock, n_out);
    for (std::size_t p = 0; p < n_taps; ++p) {
      const DelayTap& t = taps[p];
      // Tap p touches outputs [delay, delay + n_x]: the first takes only
      // x[0], the last only x[n_x - 1], the ones between both samples.
      std::size_t m = std::max(m0, t.delay);
      const std::size_t hi = std::min(m1, t.delay + n_x + 1);
      if (m >= hi) continue;
      if (m == t.delay) {
        out[m] = out[m] + t.now * x[0];
        ++m;
      }
      const std::size_t both_hi = std::min(hi, t.delay + n_x);
      if (m < both_hi) {
        delay_tap_span<A>(out + m, x + (m - t.delay - 1), x + (m - t.delay), t.prev,
                          t.now, both_hi - m);
        m = both_hi;
      }
      if (m < hi) out[m] = out[m] + t.prev * x[n_x - 1];
    }
  }
}

// Instantiates the per-ISA entry points declared in kernels_decl.hpp for
// `arch` under name suffix `suffix`; used once per simd_*.cpp TU.
#define VAB_SIMD_DEFINE_KERNELS(suffix, arch)                                  \
  void fir_decimate_##suffix(const double* taps, std::size_t n_taps,           \
                             const cplx* x, std::size_t i_first,               \
                             std::size_t m, cplx* out, std::size_t n_out) {    \
    fir_decimate_k<arch>(taps, n_taps, x, i_first, m, out, n_out);             \
  }                                                                            \
  void ccorr_dot_##suffix(const cplx* sig, const cplx* ref,                    \
                          std::size_t ref_len, cplx* out, std::size_t n_out) { \
    ccorr_dot_k<arch>(sig, ref, ref_len, out, n_out);                          \
  }                                                                            \
  void cmul_inplace_##suffix(cplx* a, const cplx* b, std::size_t n) {          \
    cmul_inplace_k<arch>(a, b, n);                                             \
  }                                                                            \
  void cscale_inplace_##suffix(cplx* x, double s, std::size_t n) {             \
    cscale_inplace_k<arch>(x, s, n);                                           \
  }                                                                            \
  void fft_stages_##suffix(cplx* x, std::size_t n, const cplx* twiddle) {      \
    fft_stages_k<arch>(x, n, twiddle);                                         \
  }                                                                            \
  void mix_real_tone_##suffix(const double* x, const cplx* tone, cplx* out,    \
                              std::size_t n) {                                 \
    mix_real_tone_k<arch>(x, tone, out, n);                                    \
  }                                                                            \
  void mix_to_real_##suffix(const cplx* x, const cplx* tone, double* out,      \
                            std::size_t n) {                                   \
    mix_to_real_k<arch>(x, tone, out, n);                                      \
  }                                                                            \
  void tone_real_##suffix(const cplx* tone, double amplitude, double* out,     \
                          std::size_t n) {                                     \
    tone_real_k<arch>(tone, amplitude, out, n);                                \
  }                                                                            \
  void delay_taps_##suffix(const DelayTap* taps, std::size_t n_taps,           \
                           const double* x, std::size_t n_x, double* out,      \
                           std::size_t n_out) {                                \
    delay_taps_k<arch>(taps, n_taps, x, n_x, out, n_out);                      \
  }

}  // namespace vab::dsp::simd::detail
