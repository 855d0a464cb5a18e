#include "graph/spmm.h"

#include <stdexcept>
#include <type_traits>

#include "tensor/cpu_features.h"
#include "tensor/gemm_kernels.h"
#include "tensor/parallel.h"

namespace ppgnn::graph {

namespace {

void check_spmm_shapes(const CsrGraph& a, const Tensor& x, const Tensor& y,
                       std::size_t out_rows) {
  if (x.ndim() != 2 || y.ndim() != 2) {
    throw std::invalid_argument("spmm: tensors must be 2-D");
  }
  if (x.rows() != a.num_nodes()) {
    throw std::invalid_argument("spmm: X rows != graph nodes");
  }
  if (y.rows() != out_rows || y.cols() != x.cols()) {
    throw std::invalid_argument("spmm: bad output shape");
  }
}

static_assert(std::is_same_v<NodeId, std::int32_t> &&
              std::is_same_v<EdgeIdx, std::int64_t>);

// Runs output rows on the rung's wide arm (tensor/gemm_kernels.h), split
// across the pool like the oracle below.  Returns false on the scalar and
// sse2 rungs, which run the oracle.
bool spmm_wide(const CsrGraph& a, const NodeId* rows, std::size_t out_rows,
               const Tensor& x, Tensor& y) {
  const detail::F32Arm* arm = detail::wide_arm(active_isa());
  if (arm == nullptr) return false;
  const detail::SpmmArgs s{a.offsets().data(),
                           a.indices().data(),
                           a.weighted() ? a.values().data() : nullptr,
                           rows,
                           x.data(),
                           y.data(),
                           x.cols()};
  parallel_for(out_rows, [&](std::size_t i0, std::size_t i1) {
    arm->spmm(s, i0, i1);
  }, /*grain=*/64);
  return true;
}

}  // namespace

void spmm(const CsrGraph& a, const Tensor& x, Tensor& y) {
  check_spmm_shapes(a, x, y, a.num_nodes());
  if (spmm_wide(a, nullptr, a.num_nodes(), x, y)) return;
  const std::size_t f = x.cols();
  const bool weighted = a.weighted();
  parallel_for(a.num_nodes(), [&](std::size_t v0, std::size_t v1) {
    for (std::size_t v = v0; v < v1; ++v) {
      const auto vid = static_cast<NodeId>(v);
      float* out = y.row(v);
      std::fill(out, out + f, 0.f);
      const auto nbrs = a.neighbors(vid);
      const auto vals = a.edge_values(vid);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const float* src = x.row(static_cast<std::size_t>(nbrs[i]));
        const float w = weighted ? vals[i] : 1.f;
        for (std::size_t j = 0; j < f; ++j) out[j] += w * src[j];
      }
    }
  }, /*grain=*/64);
}

Tensor spmm(const CsrGraph& a, const Tensor& x) {
  Tensor y({a.num_nodes(), x.cols()});
  spmm(a, x, y);
  return y;
}

void spmm_rows(const CsrGraph& a, const std::vector<NodeId>& rows,
               const Tensor& x, Tensor& y) {
  check_spmm_shapes(a, x, y, rows.size());
  if (spmm_wide(a, rows.data(), rows.size(), x, y)) return;
  const std::size_t f = x.cols();
  const bool weighted = a.weighted();
  parallel_for(rows.size(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const NodeId vid = rows[i];
      float* out = y.row(i);
      std::fill(out, out + f, 0.f);
      const auto nbrs = a.neighbors(vid);
      const auto vals = a.edge_values(vid);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        const float* src = x.row(static_cast<std::size_t>(nbrs[e]));
        const float w = weighted ? vals[e] : 1.f;
        for (std::size_t j = 0; j < f; ++j) out[j] += w * src[j];
      }
    }
  }, 64);
}

void spmm_mean_rows(const CsrGraph& a, const std::vector<NodeId>& rows,
                    const Tensor& x, Tensor& y) {
  spmm_rows(a, rows, x, y);
  const std::size_t f = x.cols();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto d = a.degree(rows[i]);
    if (d > 1) {
      const float inv = 1.f / static_cast<float>(d);
      float* out = y.row(i);
      for (std::size_t j = 0; j < f; ++j) out[j] *= inv;
    }
  }
}

}  // namespace ppgnn::graph
