// Internal interface between the fp32 dispatchers (gemm() in ops.cpp,
// spmm() and spmm_rows() in graph/spmm.cpp) and the wide arms of their
// kernel ladders (docs/kernels.md, "The fp32 GEMM ladder" and "The SpMM
// ladder"), which share the register-tiled kernels in gemm_tile.h.  Not
// installed API: callers use gemm() and spmm() and force an arm with
// PPGNN_ISA / set_isa_override().
//
// Contract every arm must meet (the bit-identity contract): each output
// element sees exactly the IEEE operation sequence of the scalar oracle
// (gemm_rows_scalar in ops.cpp, the loops in graph/spmm.cpp), so every arm
// is memcmp-equal to it for any row partition.
//
//  * GEMM update form (NN, TN): c = beta == 0 ? 0 : (beta == 1 ? c :
//    c * beta); then for l ascending: av = alpha * a(i, l); skip the step
//    when av == 0; otherwise c = c + av * b(l, j).
//  * GEMM dot form (NT, TT): c is beta-scaled as above; acc = 0; for l
//    ascending: acc = acc + a(i, l) * b(l, j); then c = c + alpha * acc.
//  * SpMM: y = 0; then for each edge e of the row's node, in CSR order:
//    y = y + w_e * x(u_e, j), with w_e = 1 on an unweighted graph (the
//    multiply stays).  There is no skip.
//
// No fused multiply-add and no reassociation: the arms' TUs are compiled
// with -ffp-contract=off (CMakeLists.txt), because gcc lowers the mul/add
// intrinsics to plain vector * and +, which it would otherwise contract.
// Which payload survives when two NaNs meet follows the compiler's operand
// order, in the oracle as in the arms, so bytes match exactly when every
// NaN is the default NaN x86 generates (docs/kernels.md).
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/cpu_features.h"

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

// One CSR SpMM, Y = A X over chosen destination rows.  Output row i is
// node rows[i] (node i when rows is null); its edges are
// [offsets[v], offsets[v + 1]) with neighbours indices[e] and weights
// values[e] (1 when values is null).  x is row-major [nodes, f], y is
// row-major [output rows, f].
struct SpmmArgs {
  const std::int64_t* offsets = nullptr;
  const std::int32_t* indices = nullptr;
  const float* values = nullptr;
  const std::int32_t* rows = nullptr;
  const float* x = nullptr;
  float* y = nullptr;
  std::size_t f = 0;
};

// Rows [i0, i1) of C (or Y), every column.  *_update_* run the GEMM update
// form, *_dot_* the dot form.  Each arm runs only on its rung
// (avx512vnni, avx2); CMake compiles its TU in the same block as that
// rung's int8 TU, so a rung that dispatches always carries its fp32 arm.
void gemm_f32_update_avx512(const GemmF32Args& g, std::size_t i0,
                            std::size_t i1);
void gemm_f32_dot_avx512(const GemmF32Args& g, std::size_t i0,
                         std::size_t i1);
void spmm_avx512(const SpmmArgs& s, std::size_t i0, std::size_t i1);
void gemm_f32_update_avx2(const GemmF32Args& g, std::size_t i0,
                          std::size_t i1);
void gemm_f32_dot_avx2(const GemmF32Args& g, std::size_t i0, std::size_t i1);
void spmm_avx2(const SpmmArgs& s, std::size_t i0, std::size_t i1);

// The wide fp32 arm of each rung, one table for both kernels: avx512vnni
// runs the AVX-512 arm, avx2 the AVX2 arm; sse2 and scalar get nullptr,
// meaning the scalar oracles.  Only the baseline-flag dispatchers call
// it, never the arms' TUs, so no copy of it is compiled with -m flags.
struct F32Arm {
  const char* name;
  void (*update)(const GemmF32Args&, std::size_t, std::size_t);
  void (*dot)(const GemmF32Args&, std::size_t, std::size_t);
  void (*spmm)(const SpmmArgs&, std::size_t, std::size_t);
};

inline const F32Arm* wide_arm(Isa isa) {
  static constexpr F32Arm kAvx512{"avx512", &gemm_f32_update_avx512,
                                  &gemm_f32_dot_avx512, &spmm_avx512};
  static constexpr F32Arm kAvx2{"avx2", &gemm_f32_update_avx2,
                                &gemm_f32_dot_avx2, &spmm_avx2};
  if (isa >= Isa::kAvx512Vnni) return &kAvx512;
  if (isa >= Isa::kAvx2) return &kAvx2;
  return nullptr;
}

}  // namespace ppgnn::detail
