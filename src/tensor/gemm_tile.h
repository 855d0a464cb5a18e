// The register-tiled kernel behind the wide arms of the fp32 GEMM ladder
// (gemm_kernels.h).  gemm_kernel_avx512.cpp and gemm_kernel_avx2.cpp each
// include it under their own -m flags with a vector type V:
//
//   reg, Tail, Live         register, column-tail mask, skip mask types
//   kLanes, kMaxVecs        floats per register, registers per tile row
//   tail(n)                 the mask of a tile's last register (n lanes)
//   zero(), set1(x), mul(a, b), add(a, b)
//   load(p, tail, last), store(p, tail, last, v)   masked when last
//   live(av)                av != 0, unordered counting as nonzero
//   add_live(acc, live, v)  acc + v where live, acc's bits elsewhere
//
// A tile is kRows rows of C by up to kMaxVecs registers, held for the
// whole k loop: each step broadcasts one A value per row, loads one row
// of B per register, and repeats the scalar oracle's per-output
// operation.  Everything here has internal linkage on purpose: each TU
// gets its own copy compiled for its own ISA, so no symbol built with
// -mavx512f can stand in for one the AVX2 TU calls.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/gemm_kernels.h"

namespace ppgnn::detail {
namespace {

constexpr std::size_t kRows = 4;

// The two operation orders of gemm_kernels.h.
enum class Form { kUpdate, kDot };

// Rows [i, i + R) by registers [0, W) of the column tile starting at j.
template <class V, std::size_t R, std::size_t W, Form F>
void tile(const GemmF32Args& g, std::size_t i, std::size_t j,
          const typename V::Tail& tail) {
  using reg = typename V::reg;
  const std::size_t n = g.n, k = g.k, a_rs = g.a_rs, a_ls = g.a_ls;
  const float beta_s = g.beta;
  const reg zero = V::zero();
  const reg alpha = V::set1(g.alpha);
  const reg beta = V::set1(beta_s);
  const auto scaled_c = [&](const float* cp, std::size_t w) {
    if (beta_s == 0.f) return zero;
    const reg c = V::load(cp, tail, w + 1 == W);
    return beta_s == 1.f ? c : V::mul(c, beta);
  };
  float* const ci = g.c + i * n + j;

  reg acc[R][W];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      acc[r][w] =
          F == Form::kDot ? zero : scaled_c(ci + r * n + w * V::kLanes, w);
    }
  }
  const float* al = g.a + i * a_rs;
  const float* bl = g.b + j;
  for (std::size_t l = 0; l < k; ++l, al += a_ls, bl += n) {
    reg b[W];
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      b[w] = V::load(bl + w * V::kLanes, tail, w + 1 == W);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      reg av = V::set1(al[r * a_rs]);
      if constexpr (F == Form::kUpdate) {
        av = V::mul(alpha, av);
        const typename V::Live live = V::live(av);
#pragma GCC unroll 4
        for (std::size_t w = 0; w < W; ++w) {
          acc[r][w] = V::add_live(acc[r][w], live, V::mul(av, b[w]));
        }
      } else {  // kDot: every step adds
#pragma GCC unroll 4
        for (std::size_t w = 0; w < W; ++w) {
          acc[r][w] = V::add(acc[r][w], V::mul(av, b[w]));
        }
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      float* cp = ci + r * n + w * V::kLanes;
      reg out = acc[r][w];
      if constexpr (F == Form::kDot) {
        out = V::add(scaled_c(cp, w), V::mul(alpha, out));
      }
      V::store(cp, tail, w + 1 == W, out);
    }
  }
}

template <class V, std::size_t R, Form F>
void tiles(const GemmF32Args& g, std::size_t i, std::size_t j,
           std::size_t vecs, const typename V::Tail& tail) {
  static_assert(V::kMaxVecs == 2 || V::kMaxVecs == 4);
  if constexpr (V::kMaxVecs == 4) {
    if (vecs == 4) return tile<V, R, 4, F>(g, i, j, tail);
    if (vecs == 3) return tile<V, R, 3, F>(g, i, j, tail);
  }
  if (vecs == 2) return tile<V, R, 2, F>(g, i, j, tail);
  tile<V, R, 1, F>(g, i, j, tail);
}

// Rows [i0, i1) of C, every column.
template <class V, Form F>
void rows(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  constexpr std::size_t kTileCols = V::kMaxVecs * V::kLanes;
  for (std::size_t j = 0; j < g.n; j += kTileCols) {
    const std::size_t cols = std::min(kTileCols, g.n - j);
    const std::size_t vecs = (cols + V::kLanes - 1) / V::kLanes;
    const typename V::Tail tail = V::tail(cols - (vecs - 1) * V::kLanes);
    std::size_t i = i0;
    for (; i + kRows <= i1; i += kRows) {
      tiles<V, kRows, F>(g, i, j, vecs, tail);
    }
    for (; i < i1; ++i) tiles<V, 1, F>(g, i, j, vecs, tail);
  }
}

}  // namespace
}  // namespace ppgnn::detail
