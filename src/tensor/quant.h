// Post-training INT8 quantization primitives.
//
// Per-row symmetric quantization: each row of a 2-D tensor gets one scale
// s = max|row| / 127 and is stored as int8 q = round(x / s), so
// dequantization is x' = q * s with |x - x'| <= s / 2 per element.  Rows
// are the quantization granularity everywhere in this library:
//   - Linear weights are quantized per *output* channel (the weight matrix
//     is stored transposed, [out, in], so "per row" = per output), which
//     keeps the scale constant along the k-summation and lets the int8
//     GEMM accumulate in int32 and dequantize once at the epilogue;
//   - activation batches and FeatureFileStore rows are quantized per
//     sample row, which bounds the error by each row's own dynamic range.
//
// The GEMM below is the serving hot path for Precision::kInt8 (src/serve).
// It is a runtime-dispatched kernel LADDER (tensor/cpu_features.h,
// docs/kernels.md): quantize_per_row() probes the CPU once and packs the
// weight codes into the layout of the widest arm the host can run —
// scalar, SSE2/AVX2 pair-pack for pmaddwd, or AVX-512 VNNI quad-pack for
// vpdpbusd — and gemm_s8_nt() dispatches on that layout.  Every arm
// accumulates in exact int32 with the same fp32 epilogue order, so all
// arms are BIT-IDENTICAL to the scalar oracle (test_kernel_ladder); the
// PPGNN_ISA environment variable forces any arm for testing.  Every
// function here runs on its caller's thread (a serving replica's
// dispatcher), never on the shared pool, and each output's accumulation
// order is fixed, so batched inference is bit-deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/cpu_features.h"
#include "tensor/tensor.h"

namespace ppgnn {

// A row-major int8 matrix with one fp32 scale per row (symmetric).
struct QuantizedMatrix {
  std::size_t rows = 0, cols = 0;
  std::vector<std::int8_t> data;  // [rows * cols]
  std::vector<float> scales;      // [rows]; row i dequantizes as q * scales[i]
  std::vector<std::int32_t> row_sums;  // [rows]; sum of row codes — lets the
                                       // GEMM fold an activation zero-point
                                       // into the epilogue exactly
  // Which kernel arm the packed layout below was built for; gemm_s8_nt
  // dispatches on this (degrading to the scalar kernel over `data` if this
  // host cannot run the arm — a matrix packed elsewhere still answers
  // correctly, just slowly).  Exactly ONE layout is materialized per
  // matrix — the one the dispatched arm reads (scalar reads `data`
  // directly and needs none), which is what keeps the resident
  // weight-scratch at one extra byte-pair (or byte) per element instead
  // of every layout at once.
  Isa packed_for = Isa::kScalar;
  // Pair-packed int16 layout for the pmaddwd arms (sse2/avx2): element
  // (kk, j, p) at packed[(kk*rows + j)*2 + p] holds code (2*kk + p) of
  // output row j (zero-padded when cols is odd).  One multiply-add-pairs
  // instruction then consumes two k-steps for 4 (xmm) or 8 (ymm) outputs
  // at once.  Built once at quantize time; weights are immutable and
  // shared across replicas, so the packing amortizes to zero.
  std::vector<std::int16_t> packed;
  // Quad-packed int8 layout for the AVX-512 VNNI arm: element (kq, j, p)
  // at packed_quad[(kq*rows + j)*4 + p] holds code (4*kq + p) of output
  // row j (zero-padded to a multiple of 4).  vpdpbusd consumes four
  // k-steps for 16 outputs per instruction — and at one byte per element
  // this layout is half the pair-pack's footprint on top of being the
  // fastest arm.
  std::vector<std::int8_t> packed_quad;

  const std::int8_t* row(std::size_t i) const { return data.data() + i * cols; }
  std::int8_t* row(std::size_t i) { return data.data() + i * cols; }
  // Storage footprint (payload + scale headers) — the "4x smaller" number.
  // Kernel layouts are runtime scratch, deliberately excluded: they never
  // hit a checkpoint, a wire, or a cache budget.
  std::size_t bytes() const {
    return data.size() * sizeof(std::int8_t) + scales.size() * sizeof(float);
  }
  // Resident kernel-layout scratch on top of bytes(): the pair-pack costs
  // 2 bytes/element, the quad-pack 1, the scalar arm nothing.
  std::size_t scratch_bytes() const {
    return packed.size() * sizeof(std::int16_t) +
           packed_quad.size() * sizeof(std::int8_t);
  }
};

// Activation batch quantized per row with an asymmetric (offset + scale)
// code: x ~= offset + q * scale, q in [-127, 127].  The offset recenters
// each row's [min, max] — ReLU'd rows (min = 0) get double the resolution
// symmetric coding would give them, which is where most of the W8A8 logit
// error comes from in a multi-layer stack.
struct QuantizedActs {
  std::size_t rows = 0, cols = 0;
  std::vector<std::int8_t> data;  // [rows * cols]
  std::vector<float> scales;      // [rows]
  std::vector<float> offsets;     // [rows]

  const std::int8_t* row(std::size_t i) const { return data.data() + i * cols; }
  std::int8_t* row(std::size_t i) { return data.data() + i * cols; }
};

// Quantizes one row of n floats; writes n int8s and the row scale.
// An all-zero row gets scale 0 and all-zero codes (dequantizes to zero).
void quantize_row_s8(const float* src, std::size_t n, std::int8_t* dst,
                     float* scale);
// Inverse of quantize_row_s8: dst[i] = src[i] * scale.
void dequantize_row_s8(const std::int8_t* src, std::size_t n, float scale,
                       float* dst);

// Per-row symmetric quantization of a 2-D tensor, packed for the arm the
// runtime dispatch selected (active_isa(): CPUID probe or the PPGNN_ISA
// override).
QuantizedMatrix quantize_per_row(const Tensor& m);
// Same, packed for an explicit arm — tests and benches that walk the
// ladder inside one process.  The arm is taken as given (not resolved):
// gemm_s8_nt falls back to the scalar kernel if this host cannot run it.
QuantizedMatrix quantize_per_row(const Tensor& m, Isa arm);
// Dequantizes back to fp32, shape [rows, cols].
Tensor dequantize(const QuantizedMatrix& q);

// Asymmetric per-row quantization of an activation batch.
QuantizedActs quantize_acts_per_row(const Tensor& m);

// C = dequant(Xq @ Wq^T) (+ bias): C[i,j] = xs[i] * ws[j] *
// sum_k Xq[i,k] * Wq[j,k], accumulated in int32.  Xq is [m, k] (per-sample
// scales), Wq is [n, k] (per-output-channel scales), C is resized to
// [m, n]; bias (length n) may be null.  Dispatches on w.packed_for; work
// is blocked over output rows (a small batch against a wide layer no
// longer serializes on one pool thread) and batch rows, sized so the
// weight block a task touches streams through L2 once for its batch rows.
void gemm_s8_nt(const QuantizedMatrix& x, const QuantizedMatrix& w, Tensor& c,
                const Tensor* bias = nullptr);

// Activation variant: C[i,j] = xs[i] * ws[j] * sum_k Xq[i,k] * Wq[j,k]
//                              + xoff[i] * ws[j] * row_sum(Wq[j]) (+ bias)
// — the x offset factors out of the k-sum because the weight row's code
// sum is precomputed, so the zero-point costs one fused multiply-add per
// output, not a wider accumulator.  This is the Linear inference path.
void gemm_s8_nt(const QuantizedActs& x, const QuantizedMatrix& w, Tensor& c,
                const Tensor* bias = nullptr);

// The arm gemm_s8_nt will actually run for this matrix on this host:
// w.packed_for when the host supports it and the layout is materialized,
// otherwise the scalar degrade.  Serving surfaces log this so a deployment
// records which rung of the ladder its fleet is on.
Isa gemm_dispatch_arm(const QuantizedMatrix& w);

}  // namespace ppgnn
