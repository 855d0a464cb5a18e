// AVX-512 VNNI arm of the INT8 GEMM kernel ladder (quant_kernels.h).
//
// vpdpbusd fuses the whole pair-pack-and-madd dance into one instruction:
// four k-steps for sixteen outputs, u8 x s8 -> int32.  The instruction
// wants UNSIGNED bytes on the activation side, so the packed words carry
// (code + 128) and the exact bias 128 * row_sum(w) is subtracted from the
// int32 accumulator before the epilogue — row_sums is already there for
// the activation zero-point, so the correction is one shift-subtract per
// 16 outputs and the accumulator equals the scalar oracle's bit for bit
// (exact while k * 32385 fits int32; see quant_kernels.h).
//
// This TU and the fp32 AVX-512 arm alone are compiled with -mavx512f
// -mavx512vnni plus -ffp-contract=off (CMakeLists.txt); it only runs
// after the CPUID+XGETBV probe passes.  The contract flag is not
// optional: gcc lowers mul/add _ps intrinsics to plain vector * and +,
// which contract=fast would fuse into FMA here (where FMA exists) and
// the epilogue would stop matching the baseline TUs bit for bit.
// Sub-16 tails go to the out-of-line scalar oracle.
#include "tensor/quant_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "tensor/quant.h"

namespace ppgnn::detail {

#if defined(__AVX512F__) && defined(__AVX512VNNI__)

void gemm_rows_avx512vnni(const GemmRowArgs& a, std::size_t j0,
                          std::size_t j1) {
  const QuantizedMatrix& w = *a.w;
  const std::size_t k4 = (w.cols + 3) / 4;
  const __m512 xs16 = _mm512_set1_ps(a.xs);
  const __m512 xo16 = _mm512_set1_ps(a.xoff);
  std::size_t j = j0;
  for (; j + 16 <= j1; j += 16) {
    __m512i acc = _mm512_setzero_si512();
    // Quad-packed layout: outputs j..j+15 of quad kq sit at
    // packed_quad[(kq*rows + j)*4] — one zmm load per four k-steps.
    const std::int8_t* wp = w.packed_quad.data() + j * 4;
    for (std::size_t kq = 0; kq < k4; ++kq) {
      const __m512i xb = _mm512_set1_epi32(a.xw[kq]);
      const __m512i wv = _mm512_loadu_si512(wp + kq * w.rows * 4);
      acc = _mm512_dpbusd_epi32(acc, xb, wv);
    }
    // Remove the unsigned-activation bias: acc -= 128 * row_sum.
    const __m512i rs = _mm512_loadu_si512(w.row_sums.data() + j);
    acc = _mm512_sub_epi32(acc, _mm512_slli_epi32(rs, 7));
    const __m512 accf = _mm512_cvtepi32_ps(acc);
    const __m512 rsf = _mm512_cvtepi32_ps(rs);
    const __m512 ws16 = _mm512_loadu_ps(w.scales.data() + j);
    __m512 out = _mm512_mul_ps(
        ws16,
        _mm512_add_ps(_mm512_mul_ps(xs16, accf), _mm512_mul_ps(xo16, rsf)));
    if (a.bias) out = _mm512_add_ps(out, _mm512_loadu_ps(a.bias + j));
    _mm512_storeu_ps(a.crow + j, out);
  }
  if (j < j1) gemm_rows_scalar(a, j, j1);
}

bool have_avx512vnni_kernel() { return true; }

#else

void gemm_rows_avx512vnni(const GemmRowArgs& a, std::size_t j0,
                          std::size_t j1) {
  gemm_rows_scalar(a, j0, j1);  // unreachable: dispatch checks have_*
}

bool have_avx512vnni_kernel() { return false; }

#endif

}  // namespace ppgnn::detail
