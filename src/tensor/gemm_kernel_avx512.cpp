// AVX-512 arm of the fp32 GEMM and SpMM ladders (gemm_kernels.h):
// gemm_tile.h's kernels on zmm registers.  GEMM tiles are 4 rows by up to
// 4 registers (64 columns), SpMM tiles one row by up to 4.  The update
// form's zero skip is a masked add, which leaves a skipped step's
// accumulator bits untouched, -0 and NaN included; column tails use
// masked loads and stores.
//
// This TU gets the avx512vnni int8 TU's flags, -mavx512f -mavx512vnni
// -ffp-contract=off (CMakeLists.txt), though it uses only AVX-512F, and
// runs only on that rung, after the CPUID+XGETBV probe; without the
// contract flag gcc would fuse the mul/add pairs into FMA and break
// bit-identity with the scalar oracle.
#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__AVX512F__)
#include "tensor/gemm_tile.h"
#endif

namespace ppgnn::detail {

#if defined(__AVX512F__)

namespace {

struct Zmm {
  using reg = __m512;
  using Tail = __mmask16;
  using Live = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kMaxVecs = 4;

  static Tail tail(std::size_t lanes) {
    return static_cast<Tail>((1u << lanes) - 1u);
  }
  static reg zero() { return _mm512_setzero_ps(); }
  static reg set1(float x) { return _mm512_set1_ps(x); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg load(const float* p, Tail t, bool last) {
    return last ? _mm512_maskz_loadu_ps(t, p) : _mm512_loadu_ps(p);
  }
  static void store(float* p, Tail t, bool last, reg v) {
    if (last) {
      _mm512_mask_storeu_ps(p, t, v);
    } else {
      _mm512_storeu_ps(p, v);
    }
  }
  static Live live(reg av) {
    return _mm512_cmp_ps_mask(av, _mm512_setzero_ps(), _CMP_NEQ_UQ);
  }
  static reg add_live(reg acc, Live live, reg v) {
    return _mm512_mask_add_ps(acc, live, acc, v);
  }
};

}  // namespace

void gemm_f32_update_avx512(const GemmF32Args& g, std::size_t i0,
                            std::size_t i1) {
  update_rows<Zmm>(g, i0, i1);
}

void gemm_f32_dot_avx512(const GemmF32Args& g, std::size_t i0,
                         std::size_t i1) {
  rows<Zmm, Form::kDot>(g, i0, i1);
}

void spmm_avx512(const SpmmArgs& s, std::size_t i0, std::size_t i1) {
  spmm<Zmm>(s, i0, i1);
}

#else

// Unreachable: without these flags the avx512vnni rung is not compiled
// either, so active_isa() never selects this arm.
void gemm_f32_update_avx512(const GemmF32Args&, std::size_t, std::size_t) {}
void gemm_f32_dot_avx512(const GemmF32Args&, std::size_t, std::size_t) {}
void spmm_avx512(const SpmmArgs&, std::size_t, std::size_t) {}

#endif

}  // namespace ppgnn::detail
