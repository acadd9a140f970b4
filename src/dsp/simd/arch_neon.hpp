// NEON (aarch64) architecture: one complex<double> per 128-bit vector.
// The win over scalar code is narrower than AVX2's two lanes — both halves
// of every complex op issue as one vector instruction — but the contract is
// the same: identical products and identical per-lane add/sub order as
// ScalarArch.
//
// cmul computes t1 = [a.re*b.re, a.im*b.re], t2 = [a.im*b.im, a.re*b.im],
// then takes lane 0 from t1 - t2 and lane 1 from t1 + t2:
//   (a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im)
// — the scalar expression tree exactly (the imaginary lane differs from the
// builtin only by one commutative IEEE addition). No fused multiply-add
// intrinsics are used anywhere, and the TU builds with -ffp-contract=off.
//
// Empty unless targeting aarch64, mirroring arch_avx2.hpp: the header
// self-containment lint compiles headers on the build host.
#pragma once

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "common/types.hpp"

namespace vab::dsp::simd {

struct NeonArch {
  static constexpr std::size_t kLanes = 1;
  using V = float64x2_t;  // [re, im]
  using R = float64x2_t;  // broadcast real factor
  using I = float64x2_t;  // broadcast imaginary factor as [-im, im]

  static V zero() { return vdupq_n_f64(0.0); }
  static V load(const cplx* p) {
    return vld1q_f64(reinterpret_cast<const double*>(p));
  }
  static V load_stride(const cplx* p, std::size_t /*m*/) { return load(p); }
  static void store(cplx* p, V v) { vst1q_f64(reinterpret_cast<double*>(p), v); }
  static R broadcast_real(double s) { return vdupq_n_f64(s); }
  static I broadcast_imag(double d) {
    // [-d, d]: the sign rides in the broadcast so cmul_bcast can use one
    // plain add for both lanes. (-d)*x is exactly -(d*x) under IEEE-754, so
    // lane 0 computes re*c + (-(im*d)) == re*c - im*d bit-for-bit.
    return vsetq_lane_f64(-d, vdupq_n_f64(d), 0);
  }
  static V load_dup_real(const double* p) { return vdupq_n_f64(*p); }
  static void store_real(double* p, V v) { *p = vgetq_lane_f64(v, 0); }
  static V add(V a, V b) { return vaddq_f64(a, b); }
  static V sub(V a, V b) { return vsubq_f64(a, b); }
  static V mul_real(V a, R s) { return vmulq_f64(s, a); }
  static V mul_elems(V a, V b) { return vmulq_f64(a, b); }
  static V cmul(V a, V b) {
    const V t1 = vmulq_laneq_f64(a, b, 0);                   // [ac, bc]
    const V t2 = vmulq_laneq_f64(vextq_f64(a, a, 1), b, 1);  // [bd, ad]
    return vcopyq_laneq_f64(vsubq_f64(t1, t2), 1, vaddq_f64(t1, t2), 1);
  }
  /// cmul(a, b) with b pre-split into broadcast (re, [-im, im]) halves: the
  /// same four products; lane 0 folds with add-of-negated-product, which is
  /// bit-identical to the scalar subtraction (see broadcast_imag).
  static V cmul_bcast(V a, R re, I im) {
    const V t1 = vmulq_f64(a, re);                  // [ac, bc]
    const V t2 = vmulq_f64(vextq_f64(a, a, 1), im); // [-bd, ad]
    return vaddq_f64(t1, t2);                       // [ac-bd, bc+ad]
  }

  // Real-valued lanes: two doubles per D (broadcast_real is their splat).
  static constexpr std::size_t kRealLanes = 2;
  using D = float64x2_t;
  static D load_r(const double* p) { return vld1q_f64(p); }
  static void store_r(double* p, D v) { vst1q_f64(p, v); }
  static D add_r(D a, D b) { return vaddq_f64(a, b); }
  static D mul_r(D a, D b) { return vmulq_f64(a, b); }
};

}  // namespace vab::dsp::simd

#endif  // defined(__aarch64__)
