// AVX2 arm of the INT8 GEMM kernel ladder (quant_kernels.h).
//
// This translation unit and the fp32 AVX2 arm alone are compiled with
// -mavx2 -ffp-contract=off (CMakeLists.txt); the function only runs
// after the CPUID probe (cpu_features.cpp) said the host executes AVX2,
// so no illegal instruction can escape.  The contract flag plus the
// OUT-OF-LINE scalar tail in quant.cpp are what keep this arm
// bit-identical to scalar: gcc lowers mul/add _ps intrinsics to vector *
// and +, which contract=fast would fuse into FMA on any -m level where
// FMA exists (see quant_kernels.h for the full contract).
#include "tensor/quant_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "tensor/quant.h"

namespace ppgnn::detail {

#if defined(__AVX2__)

void gemm_rows_avx2(const GemmRowArgs& a, std::size_t j0, std::size_t j1) {
  const QuantizedMatrix& w = *a.w;
  const std::size_t k2 = (w.cols + 1) / 2;
  const __m256 xs8 = _mm256_set1_ps(a.xs);
  const __m256 xo8 = _mm256_set1_ps(a.xoff);
  std::size_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    __m256i acc = _mm256_setzero_si256();
    // Same pair-packed layout as the SSE2 arm: outputs j..j+7 of pair kk
    // sit at packed[(kk*rows + j)*2] — one ymm load per step.
    const std::int16_t* wp = w.packed.data() + j * 2;
    for (std::size_t kk = 0; kk < k2; ++kk) {
      const __m256i xb = _mm256_set1_epi32(a.xw[kk]);
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wp + kk * w.rows * 2));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xb, wv));
    }
    const __m256 accf = _mm256_cvtepi32_ps(acc);
    const __m256 rs8 = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(w.row_sums.data() + j)));
    const __m256 ws8 = _mm256_loadu_ps(w.scales.data() + j);
    __m256 out = _mm256_mul_ps(
        ws8, _mm256_add_ps(_mm256_mul_ps(xs8, accf), _mm256_mul_ps(xo8, rs8)));
    if (a.bias) out = _mm256_add_ps(out, _mm256_loadu_ps(a.bias + j));
    _mm256_storeu_ps(a.crow + j, out);
  }
  // The 4-wide remainder reads the identical pair layout with identical
  // per-output arithmetic; it hands its own sub-4 tail to the scalar
  // oracle.
  if (j < j1) gemm_rows_sse2(a, j, j1);
}

bool have_avx2_kernel() { return true; }

#else

void gemm_rows_avx2(const GemmRowArgs& a, std::size_t j0, std::size_t j1) {
  gemm_rows_scalar(a, j0, j1);  // unreachable: dispatch checks have_*
}

bool have_avx2_kernel() { return false; }

#endif

}  // namespace ppgnn::detail
