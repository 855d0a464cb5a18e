// Dense kernels shared by the NN layers, samplers and models.
//
// CPU implementations.  Only long loops split over the leading dimension
// on the global thread pool: a GEMM from 2^23 multiply-adds (from 5 rows
// on the scalar oracle), relu and add_inplace from 2^16 elements,
// softmax_rows from 256 rows and gather_rows from 512.  The rest, the
// bias add and concat_cols included, run on the calling thread.  GEMM is
// a runtime-dispatched ladder (docs/kernels.md): a scalar oracle plus
// AVX2 and AVX-512 arms that hold tiles of C in registers and are
// bit-identical to it.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ppgnn {

class Rng;

// ---------------------------------------------------------------------------
// GEMM: C = alpha * op(A) @ op(B) + beta * C.
// op(A) is [m, k], op(B) is [k, n], C is [m, n]; dimensions are validated.
// The arm follows active_isa() (tensor/cpu_features.h); every arm runs
// each output's operations in the scalar oracle's order, on any pool size.
void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha = 1.f, float beta = 0.f);
// The arm gemm() dispatches to right now: "avx512", "avx2" or "scalar".
const char* gemm_f32_arm();

// Convenience allocating wrappers.
Tensor matmul(const Tensor& a, const Tensor& b);                 // A @ B
Tensor matmul_nt(const Tensor& a, const Tensor& b);              // A @ B^T

// ---------------------------------------------------------------------------
// Elementwise / vector ops (shapes must match exactly).
void add_inplace(Tensor& a, const Tensor& b);           // a += b
void sub_inplace(Tensor& a, const Tensor& b);           // a -= b
void mul_inplace(Tensor& a, const Tensor& b);           // a *= b (Hadamard)
void axpy(float alpha, const Tensor& x, Tensor& y);     // y += alpha * x
void scale_inplace(Tensor& a, float alpha);             // a *= alpha

// Adds a length-cols vector to every row of a 2-D tensor (bias add).
void add_row_vector(Tensor& a, const Tensor& bias);
// Sums a 2-D tensor over rows into a length-cols vector (bias gradient).
void sum_rows(const Tensor& a, Tensor& out);
// Sums all elements.
float sum_all(const Tensor& a);

// ---------------------------------------------------------------------------
// Activations (forward writes out; backward consumes forward output).
void relu(const Tensor& x, Tensor& out);
void relu_backward(const Tensor& out, const Tensor& grad_out, Tensor& grad_in);
void leaky_relu(const Tensor& x, Tensor& out, float slope);
void leaky_relu_backward(const Tensor& x, const Tensor& grad_out,
                         Tensor& grad_in, float slope);
void gelu(const Tensor& x, Tensor& out);
void gelu_backward(const Tensor& x, const Tensor& grad_out, Tensor& grad_in);

// Row-wise softmax / log-softmax over the last dimension of a 2-D tensor.
void softmax_rows(const Tensor& x, Tensor& out);
void log_softmax_rows(const Tensor& x, Tensor& out);

// Mean cross-entropy over rows given logits and integer labels.
// Returns the loss; grad_logits (same shape as logits, may alias nothing)
// receives d(loss)/d(logits).  Rows with label < 0 are ignored (masked).
float cross_entropy(const Tensor& logits, const std::vector<std::int32_t>& labels,
                    Tensor& grad_logits);

// Fraction of rows whose argmax equals the label (labels < 0 are skipped).
double accuracy(const Tensor& logits, const std::vector<std::int32_t>& labels);
std::size_t argmax_row(const Tensor& x, std::size_t row);

// ---------------------------------------------------------------------------
// Dropout: out = x * mask / (1 - p); mask recorded for backward.
void dropout(const Tensor& x, Tensor& out, std::vector<std::uint8_t>& mask,
             float p, Rng& rng);
void dropout_backward(const Tensor& grad_out,
                      const std::vector<std::uint8_t>& mask, Tensor& grad_in,
                      float p);

// ---------------------------------------------------------------------------
// Row gather / scatter (batch assembly primitives; also used by samplers).
// out.row(i) = src.row(idx[i]).
void gather_rows(const Tensor& src, const std::vector<std::int64_t>& idx,
                 Tensor& out);
Tensor gather_rows(const Tensor& src, const std::vector<std::int64_t>& idx);
// dst.row(idx[i]) += src.row(i).  Rows in idx may repeat; not parallel-safe
// over duplicate targets, so this kernel is serial over rows.
void scatter_add_rows(const Tensor& src, const std::vector<std::int64_t>& idx,
                      Tensor& dst);

// Concatenates 2-D tensors with equal row counts along columns.
Tensor concat_cols(const std::vector<const Tensor*>& parts);
// Splits grad of a concat back into per-part gradients (inverse of above).
void split_cols(const Tensor& whole, std::vector<Tensor*>& parts);

// ---------------------------------------------------------------------------
// Comparisons for tests.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace ppgnn
