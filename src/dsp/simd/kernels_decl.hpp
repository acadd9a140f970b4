// Declarations of the per-ISA kernel entry points defined by
// VAB_SIMD_DEFINE_KERNELS in the simd_{scalar,avx2,neon}.cpp translation
// units. All three symbol sets always exist (an ISA that was not compiled
// forwards to the scalar kernels), so dispatch.cpp links unconditionally.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/simd/simd.hpp"

namespace vab::dsp::simd::detail {

#define VAB_SIMD_KERNELS(suffix)                                               \
  void fir_decimate_##suffix(const double* taps, std::size_t n_taps,           \
                             const cplx* x, std::size_t i_first,               \
                             std::size_t m, cplx* out, std::size_t n_out);     \
  void ccorr_dot_##suffix(const cplx* sig, const cplx* ref,                    \
                          std::size_t ref_len, cplx* out, std::size_t n_out);  \
  void cmul_inplace_##suffix(cplx* a, const cplx* b, std::size_t n);           \
  void cscale_inplace_##suffix(cplx* x, double s, std::size_t n);              \
  void fft_stages_##suffix(cplx* x, std::size_t n, const cplx* twiddle);       \
  void mix_real_tone_##suffix(const double* x, const cplx* tone, cplx* out,    \
                              std::size_t n);                                  \
  void mix_to_real_##suffix(const cplx* x, const cplx* tone, double* out,      \
                            std::size_t n);                                    \
  void tone_real_##suffix(const cplx* tone, double amplitude, double* out,     \
                          std::size_t n);                                      \
  void delay_taps_##suffix(const DelayTap* taps, std::size_t n_taps,           \
                           const double* x, std::size_t n_x, double* out,      \
                           std::size_t n_out);

VAB_SIMD_KERNELS(scalar)
VAB_SIMD_KERNELS(avx2)
VAB_SIMD_KERNELS(neon)

#undef VAB_SIMD_KERNELS

}  // namespace vab::dsp::simd::detail
