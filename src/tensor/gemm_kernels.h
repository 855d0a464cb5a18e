// Internal interface between the fp32 GEMM dispatcher (ops.cpp) and the
// wide arms of its kernel ladder (docs/kernels.md, "The fp32 GEMM
// ladder"), which share the tiled kernel in gemm_tile.h.  Not installed
// API: callers use gemm() and force an arm with PPGNN_ISA /
// set_isa_override().
//
// Contract every arm must meet (the bit-identity contract): each output
// element sees exactly the IEEE operation sequence of the scalar oracle
// in ops.cpp, so every arm is memcmp-equal to it for any row partition.
//
//  * Update form (NN, TN): c = beta == 0 ? 0 : (beta == 1 ? c : c * beta);
//    then for l ascending: av = alpha * a(i, l); skip the step when
//    av == 0; otherwise c = c + av * b(l, j).
//  * Dot form (NT, TT): c is beta-scaled as above; acc = 0; for l
//    ascending: acc = acc + a(i, l) * b(l, j); then c = c + alpha * acc.
//
// No fused multiply-add and no reassociation: the arms' TUs are compiled
// with -ffp-contract=off (CMakeLists.txt), because gcc lowers the mul/add
// intrinsics to plain vector * and +, which it would otherwise contract.
// Which payload survives when two NaNs meet follows the compiler's operand
// order, in the oracle as in the arms, so bytes match exactly when every
// NaN is the default NaN x86 generates (docs/kernels.md).
#pragma once

#include <cstddef>

namespace ppgnn::detail {

// One GEMM with transposition resolved.  Logical A(i, l) is
// a[i * a_rs + l * a_ls]; b is row-major [k, n] (B itself for NN/TN, the
// packed Bt panel for NT/TT); c is row-major [m, n].
struct GemmF32Args {
  const float* a = nullptr;
  std::size_t a_rs = 0, a_ls = 0;
  const float* b = nullptr;
  float* c = nullptr;
  std::size_t m = 0, k = 0, n = 0;
  float alpha = 1.f, beta = 0.f;
};

// Rows [i0, i1) of C, every column.  *_update_* run the update form,
// *_dot_* the dot form.  Each arm runs only on its rung (avx512vnni,
// avx2); CMake compiles its TU in the same block as that rung's int8 TU,
// so a rung that dispatches always carries its fp32 arm.
void gemm_f32_update_avx512(const GemmF32Args& g, std::size_t i0,
                            std::size_t i1);
void gemm_f32_dot_avx512(const GemmF32Args& g, std::size_t i0,
                         std::size_t i1);
void gemm_f32_update_avx2(const GemmF32Args& g, std::size_t i0,
                          std::size_t i1);
void gemm_f32_dot_avx2(const GemmF32Args& g, std::size_t i0, std::size_t i1);

}  // namespace ppgnn::detail
