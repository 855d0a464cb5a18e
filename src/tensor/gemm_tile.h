// The register-tiled kernels behind the wide arms of the fp32 GEMM and
// SpMM ladders (gemm_kernels.h).  gemm_kernel_avx512.cpp and
// gemm_kernel_avx2.cpp each include it under their own -m flags with a
// vector type V:
//
//   reg, Tail, Live         register, column-tail mask, skip mask types
//   kLanes, kMaxVecs        floats per register, registers per GEMM tile row
//   tail(n)                 the mask of a tile's last register (n lanes)
//   zero(), set1(x), mul(a, b), add(a, b)
//   load(p, tail, last), store(p, tail, last, v)   masked when last
//   live(av)                av != 0, unordered counting as nonzero
//   add_live(acc, live, v)  acc + v where live, acc's bits elsewhere
//
// A GEMM tile is kRows rows of C by up to kMaxVecs registers, or kTallRows
// rows by one register, held for the whole k loop: each step broadcasts
// one A value per row, loads one row of B per register, and repeats the
// scalar oracle's per-output operation.  An SpMM tile is one output row
// by up to kSpmmVecs registers, held for the whole neighbour loop: each
// edge broadcasts its weight and loads one row segment of X per register.
// Everything here has internal linkage on purpose: each TU gets its own
// copy compiled for its own ISA, so no symbol built with -mavx512f can
// stand in for one the AVX2 TU calls.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "tensor/gemm_kernels.h"

namespace ppgnn::detail {
namespace {

constexpr std::size_t kRows = 4;
// Rows of a tile one register wide: its accumulators, the B register and
// the broadcast fit the 16 ymm registers as well as the 32 zmm.
constexpr std::size_t kTallRows = 8;

// The two operation orders of gemm_kernels.h.  kUnitUpdate is the update
// form at alpha == 1, which steps with av = a(i, l) itself: 1 * x is x
// for every float, -0 and inf included, and the product av * b(l, j)
// quiets an sNaN whether or not the multiply by 1 did so first.
enum class Form { kUpdate, kUnitUpdate, kDot };

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
#pragma GCC unroll 8
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
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      reg av = V::set1(al[r * a_rs]);
      if constexpr (F != Form::kDot) {
        if constexpr (F == Form::kUpdate) av = V::mul(alpha, av);
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
#pragma GCC unroll 8
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

// Rows [i0, i1) of C, every column: kTallRows-row tiles while a column
// tile is one register wide, then kRows-row tiles, then single rows.
template <class V, Form F>
void rows(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  constexpr std::size_t kTileCols = V::kMaxVecs * V::kLanes;
  for (std::size_t j = 0; j < g.n; j += kTileCols) {
    const std::size_t cols = std::min(kTileCols, g.n - j);
    const std::size_t vecs = (cols + V::kLanes - 1) / V::kLanes;
    const typename V::Tail tail = V::tail(cols - (vecs - 1) * V::kLanes);
    std::size_t i = i0;
    if (vecs == 1) {
      for (; i + kTallRows <= i1; i += kTallRows) {
        tile<V, kTallRows, 1, F>(g, i, j, tail);
      }
    }
    for (; i + kRows <= i1; i += kRows) {
      tiles<V, kRows, F>(g, i, j, vecs, tail);
    }
    for (; i < i1; ++i) tiles<V, 1, F>(g, i, j, vecs, tail);
  }
}

// The update form (NN, TN), stepping with a(i, l) itself when alpha == 1.
template <class V>
void update_rows(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  if (g.alpha == 1.f) return rows<V, Form::kUnitUpdate>(g, i0, i1);
  rows<V, Form::kUpdate>(g, i0, i1);
}

constexpr std::size_t kSpmmVecs = 4;

// Columns [j, j + W registers) of output row i: the oracle's
// y = 0; y = y + w_e * x(u_e, j) over the row's edges in CSR order.  With
// kTail the last register loads and stores under `tail`.
template <class V, std::size_t W, bool kWeighted, bool kTail>
void spmm_tile(const SpmmArgs& s, std::size_t i, std::size_t j,
               const typename V::Tail& tail) {
  using reg = typename V::reg;
  const std::size_t v = s.rows ? static_cast<std::size_t>(s.rows[i]) : i;
  const std::int64_t e1 = s.offsets[v + 1];
  reg acc[W];
#pragma GCC unroll 4
  for (std::size_t w = 0; w < W; ++w) acc[w] = V::zero();
  for (std::int64_t e = s.offsets[v]; e < e1; ++e) {
    const reg wt = V::set1(kWeighted ? s.values[e] : 1.f);
    const float* src = s.x + static_cast<std::size_t>(s.indices[e]) * s.f + j;
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      acc[w] = V::add(acc[w], V::mul(wt, V::load(src + w * V::kLanes, tail,
                                                 kTail && w + 1 == W)));
    }
  }
  float* out = s.y + i * s.f + j;
#pragma GCC unroll 4
  for (std::size_t w = 0; w < W; ++w) {
    V::store(out + w * V::kLanes, tail, kTail && w + 1 == W, acc[w]);
  }
}

// The last, partial tile of a row: `vecs` registers, the last under
// `tail`.
template <class V, bool kWeighted>
void spmm_tail_tile(const SpmmArgs& s, std::size_t i, std::size_t j,
                    std::size_t vecs, const typename V::Tail& tail) {
  static_assert(kSpmmVecs == 4);
  if (vecs == 4) return spmm_tile<V, 4, kWeighted, true>(s, i, j, tail);
  if (vecs == 3) return spmm_tile<V, 3, kWeighted, true>(s, i, j, tail);
  if (vecs == 2) return spmm_tile<V, 2, kWeighted, true>(s, i, j, tail);
  spmm_tile<V, 1, kWeighted, true>(s, i, j, tail);
}

// Output rows [i0, i1), every column; a row's tiles run back to back, so
// its neighbours' rows are still in cache for the tiles after the first.
template <class V, bool kWeighted>
void spmm_rows(const SpmmArgs& s, std::size_t i0, std::size_t i1) {
  constexpr std::size_t kTileCols = kSpmmVecs * V::kLanes;
  const std::size_t full = s.f / kTileCols * kTileCols;
  const std::size_t rest = s.f - full;
  const std::size_t rest_vecs = (rest + V::kLanes - 1) / V::kLanes;
  const typename V::Tail tail =
      V::tail(rest == 0 ? V::kLanes : rest - (rest_vecs - 1) * V::kLanes);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = 0; j < full; j += kTileCols) {
      spmm_tile<V, kSpmmVecs, kWeighted, false>(s, i, j, tail);
    }
    if (rest != 0) spmm_tail_tile<V, kWeighted>(s, i, full, rest_vecs, tail);
  }
}

template <class V>
void spmm(const SpmmArgs& s, std::size_t i0, std::size_t i1) {
  if (s.values != nullptr) return spmm_rows<V, true>(s, i0, i1);
  spmm_rows<V, false>(s, i0, i1);
}

}  // namespace
}  // namespace ppgnn::detail
