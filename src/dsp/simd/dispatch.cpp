// Runtime ISA dispatch for the batch kernels. Resolution order:
//
//   1. force_isa() (tests / A-B benches), else
//   2. the VAB_SIMD environment variable ("scalar", "avx2", "neon"), clamped
//      to what this binary + CPU can actually run, else
//   3. the widest compiled ISA the CPU supports.
//
// The resolved name is written to the obs run manifest ("simd_isa") the
// first time it is resolved, so every metrics snapshot and BENCH line
// records which path produced its numbers.
#include "dsp/simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "dsp/simd/kernels_decl.hpp"
#include "obs/manifest.hpp"

namespace vab::dsp::simd {

namespace {

// -1 = automatic, otherwise static_cast<int>(Isa).
std::atomic<int> g_forced{-1};

bool runtime_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(VAB_SIMD_COMPILED_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(VAB_SIMD_COMPILED_NEON)
      return true;  // NEON is baseline on aarch64.
#else
      return false;
#endif
  }
  return false;
}

Isa resolve_auto() {
  if (const char* env = std::getenv("VAB_SIMD")) {
    const std::string want(env);
    if (want == "scalar") return Isa::kScalar;
    if (want == "avx2" && runtime_supported(Isa::kAvx2)) return Isa::kAvx2;
    if (want == "neon" && runtime_supported(Isa::kNeon)) return Isa::kNeon;
    // Unknown or unavailable value: fall through to the automatic pick.
  }
  if (runtime_supported(Isa::kAvx2)) return Isa::kAvx2;
  if (runtime_supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa record_isa(Isa isa) {
  obs::set_manifest("simd_isa", isa_name(isa));
  return isa;
}

Isa auto_isa() {
  static const Isa resolved = record_isa(resolve_auto());
  return resolved;
}

}  // namespace

Isa compiled_isa() {
#if defined(VAB_SIMD_COMPILED_AVX2)
  return Isa::kAvx2;
#elif defined(VAB_SIMD_COMPILED_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

Isa active_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return auto_isa();
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool force_isa(Isa isa) {
  if (!runtime_supported(isa)) return false;
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
  record_isa(isa);
  return true;
}

void reset_isa() {
  g_forced.store(-1, std::memory_order_relaxed);
  record_isa(auto_isa());
}

#define VAB_SIMD_DISPATCH(call_scalar, call_avx2, call_neon)                   \
  switch (active_isa()) {                                                      \
    case Isa::kAvx2:                                                           \
      call_avx2;                                                               \
      return;                                                                  \
    case Isa::kNeon:                                                           \
      call_neon;                                                               \
      return;                                                                  \
    case Isa::kScalar:                                                         \
      break;                                                                   \
  }                                                                            \
  call_scalar

void fir_decimate(const double* taps, std::size_t n_taps, const cplx* x,
                  std::size_t i_first, std::size_t m, cplx* out,
                  std::size_t n_out) {
  VAB_SIMD_DISPATCH(
      detail::fir_decimate_scalar(taps, n_taps, x, i_first, m, out, n_out),
      detail::fir_decimate_avx2(taps, n_taps, x, i_first, m, out, n_out),
      detail::fir_decimate_neon(taps, n_taps, x, i_first, m, out, n_out));
}

void ccorr_dot(const cplx* sig, const cplx* ref, std::size_t ref_len, cplx* out,
               std::size_t n_out) {
  VAB_SIMD_DISPATCH(detail::ccorr_dot_scalar(sig, ref, ref_len, out, n_out),
                    detail::ccorr_dot_avx2(sig, ref, ref_len, out, n_out),
                    detail::ccorr_dot_neon(sig, ref, ref_len, out, n_out));
}

void cmul_inplace(cplx* a, const cplx* b, std::size_t n) {
  VAB_SIMD_DISPATCH(detail::cmul_inplace_scalar(a, b, n),
                    detail::cmul_inplace_avx2(a, b, n),
                    detail::cmul_inplace_neon(a, b, n));
}

void cscale_inplace(cplx* x, double s, std::size_t n) {
  VAB_SIMD_DISPATCH(detail::cscale_inplace_scalar(x, s, n),
                    detail::cscale_inplace_avx2(x, s, n),
                    detail::cscale_inplace_neon(x, s, n));
}

void fft_stages(cplx* x, std::size_t n, const cplx* twiddle) {
  VAB_SIMD_DISPATCH(detail::fft_stages_scalar(x, n, twiddle),
                    detail::fft_stages_avx2(x, n, twiddle),
                    detail::fft_stages_neon(x, n, twiddle));
}

void mix_real_tone(const double* x, const cplx* tone, cplx* out,
                   std::size_t n) {
  VAB_SIMD_DISPATCH(detail::mix_real_tone_scalar(x, tone, out, n),
                    detail::mix_real_tone_avx2(x, tone, out, n),
                    detail::mix_real_tone_neon(x, tone, out, n));
}

void mix_to_real(const cplx* x, const cplx* tone, double* out, std::size_t n) {
  VAB_SIMD_DISPATCH(detail::mix_to_real_scalar(x, tone, out, n),
                    detail::mix_to_real_avx2(x, tone, out, n),
                    detail::mix_to_real_neon(x, tone, out, n));
}

void tone_real(const cplx* tone, double amplitude, double* out,
               std::size_t n) {
  VAB_SIMD_DISPATCH(detail::tone_real_scalar(tone, amplitude, out, n),
                    detail::tone_real_avx2(tone, amplitude, out, n),
                    detail::tone_real_neon(tone, amplitude, out, n));
}

void delay_taps(const DelayTap* taps, std::size_t n_taps, const double* x,
                std::size_t n_x, double* out, std::size_t n_out) {
  VAB_SIMD_DISPATCH(detail::delay_taps_scalar(taps, n_taps, x, n_x, out, n_out),
                    detail::delay_taps_avx2(taps, n_taps, x, n_x, out, n_out),
                    detail::delay_taps_neon(taps, n_taps, x, n_x, out, n_out));
}

#undef VAB_SIMD_DISPATCH

namespace {

/// The one serial accumulation loop behind both public reductions: never
/// widened so the fold order matches the historical scalar code on every ISA.
template <class T, class Norm>
double serial_sum(const T* x, std::size_t n, Norm norm) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += norm(x[i]);
  return acc;
}

}  // namespace

double sum_squares(const double* x, std::size_t n) {
  return serial_sum(x, n, [](double v) { return v * v; });
}

double sum_norms(const cplx* x, std::size_t n) {
  return serial_sum(x, n, [](const cplx& v) {
    return v.real() * v.real() + v.imag() * v.imag();
  });
}

}  // namespace vab::dsp::simd
