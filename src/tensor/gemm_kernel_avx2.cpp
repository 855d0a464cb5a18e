// AVX2 arm of the fp32 GEMM and SpMM ladders (gemm_kernels.h):
// gemm_tile.h's kernels on ymm registers.  GEMM tiles are 4 rows by up to
// 2 registers (16 columns), SpMM tiles one row by up to 4 (32 columns).
// AVX has no masked add, so the update form's zero skip blends the sum
// back over the accumulator with the compare mask, which leaves a skipped
// step's accumulator bits untouched; column tails use vmaskmov loads and
// stores.
//
// This TU is compiled with -mavx2 -ffp-contract=off wherever the avx2
// int8 TU is compiled (CMakeLists.txt) and runs only on that rung, after
// the CPUID probe; the contract flag keeps gcc from fusing the mul/add
// pairs into FMA.
#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__AVX2__)
#include "tensor/gemm_tile.h"
#endif

namespace ppgnn::detail {

#if defined(__AVX2__)

namespace {

struct Ymm {
  using reg = __m256;
  using Tail = __m256i;
  using Live = __m256;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kMaxVecs = 2;

  static Tail tail(std::size_t lanes) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg set1(float x) { return _mm256_set1_ps(x); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg load(const float* p, const Tail& t, bool last) {
    return last ? _mm256_maskload_ps(p, t) : _mm256_loadu_ps(p);
  }
  static void store(float* p, const Tail& t, bool last, reg v) {
    if (last) {
      _mm256_maskstore_ps(p, t, v);
    } else {
      _mm256_storeu_ps(p, v);
    }
  }
  static Live live(reg av) {
    return _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  }
  static reg add_live(reg acc, Live live, reg v) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, v), live);
  }
};

}  // namespace

void gemm_f32_update_avx2(const GemmF32Args& g, std::size_t i0,
                          std::size_t i1) {
  update_rows<Ymm>(g, i0, i1);
}

void gemm_f32_dot_avx2(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  rows<Ymm, Form::kDot>(g, i0, i1);
}

void spmm_avx2(const SpmmArgs& s, std::size_t i0, std::size_t i1) {
  spmm<Ymm>(s, i0, i1);
}

#else

// Unreachable: without -mavx2 the avx2 rung is not compiled either, so
// active_isa() never selects this arm.
void gemm_f32_update_avx2(const GemmF32Args&, std::size_t, std::size_t) {}
void gemm_f32_dot_avx2(const GemmF32Args&, std::size_t, std::size_t) {}
void spmm_avx2(const SpmmArgs&, std::size_t, std::size_t) {}

#endif

}  // namespace ppgnn::detail
