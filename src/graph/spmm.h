// Sparse-dense products over CSR graphs.
//
// These kernels implement feature propagation: Y[v] = sum_{u in N(v)}
// w(v,u) * X[u].  They are the compute core of PP-GNN preprocessing
// (src/core/precompute.*) and of the MP-GNN aggregation layers.
//
// spmm and spmm_rows are a runtime-dispatched ladder on the fp32 GEMM's
// rungs (docs/kernels.md, "The SpMM ladder"): the scalar loops in spmm.cpp
// are the oracle, and on the avx512vnni and avx2 rungs an AVX-512 or AVX2
// arm holds a column tile of each output row in registers over its whole
// neighbour loop.  Every arm runs each output element's operations in the
// oracle's order, 0 + w_0 * x_0 + w_1 * x_1 + ... in CSR order with no
// FMA, so all arms are memcmp-equal on any pool size.  gemm_f32_arm()
// (tensor/ops.h) names the arm that runs.
#pragma once

#include "graph/csr.h"
#include "tensor/tensor.h"

namespace ppgnn::graph {

// Y = A @ X, parallel over destination rows.  X is [n, f]; Y is [n, f].
// Unweighted graphs use weight 1 per edge.
void spmm(const CsrGraph& a, const Tensor& x, Tensor& y);
Tensor spmm(const CsrGraph& a, const Tensor& x);

// Y = A @ X restricted to a set of destination rows: for each i,
// Y.row(i) = sum over neighbors of rows[i] in A of w * X[u].
// Used by MP-GNN blocks where only sampled destinations are materialized.
void spmm_rows(const CsrGraph& a, const std::vector<NodeId>& rows,
               const Tensor& x, Tensor& y);

// Mean variant: divides each output row by max(degree, 1).
void spmm_mean_rows(const CsrGraph& a, const std::vector<NodeId>& rows,
                    const Tensor& x, Tensor& y);

}  // namespace ppgnn::graph
