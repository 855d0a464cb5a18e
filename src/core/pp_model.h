// PP-GNN model interface.
//
// All three models consume the same expanded mini-batch layout produced by
// Preprocessed::expanded_rows / the data loaders: each row is the hop-major
// concatenation [hop0 | hop1 | ... | hopR] of one node's propagated
// features.  Models slice the hops they need — which is why one loader
// implementation serves SGC, SIGN and HOGA alike (and why the paper's
// loading optimizations are model-agnostic).
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace ppgnn::core {

class PpModel {
 public:
  virtual ~PpModel() = default;

  // batch: [b, (R+1)*F] -> logits [b, classes].
  virtual Tensor forward(const Tensor& batch, bool train) = 0;
  // Gradients flow only into parameters; the input is data.
  virtual void backward(const Tensor& grad_logits) = 0;
  virtual void collect_params(std::vector<nn::ParamSlot>& out) = 0;
  // Appends every nn::Linear in a fixed architecture order — the walk
  // post-training INT8 quantization uses (quantize_int8 /
  // share_quantized_weights below).  Models whose dense layers are all
  // nn::Linear/nn::Mlp get this for free by forwarding; the default
  // appends nothing, which quantize_int8 reports as "unsupported".
  virtual void collect_linears(std::vector<nn::Linear*>& out) { (void)out; }
  virtual std::string name() const = 0;
  virtual std::size_t hops() const = 0;

  std::size_t num_params() {
    std::vector<nn::ParamSlot> slots;
    collect_params(slots);
    std::size_t n = 0;
    for (const auto& s : slots) n += s.value->size();
    return n;
  }

  // Batched-inference entry point (the serving path, src/serve/).  Eval-mode
  // forward: dropout off, no gradient caching required.  Row-independent by
  // construction — every kernel on the inference path processes output rows
  // independently with a fixed accumulation order, so infer() over a batch
  // is bit-identical to concatenating per-row infer() calls (test_serve
  // relies on this to prove micro-batching never changes answers).  Not
  // required to be concurrency-safe: callers serialize calls per model
  // instance (the MicroBatcher's dispatcher does).  At serving batches the
  // forward runs on the calling thread; only the fp32 scalar GEMM oracle
  // still splits across the global thread pool (tensor/ops.h).
  virtual Tensor infer(const Tensor& batch) { return forward(batch, false); }
};

// Post-training INT8 quantization of a deployed model (core/quantize.cpp).
// Quantizes every collected Linear per output channel; eval-mode infer()
// then runs the int8 GEMM path while training forwards keep using fp32.
// Returns the number of layers quantized; throws std::invalid_argument if
// the model exposes no quantizable layers.
std::size_t quantize_int8(PpModel& model);

// Points every Linear in `dst` at `src`'s immutable quantized blocks (both
// models must be the same architecture) — a serving fleet quantizes one
// model copy and shares the weights across replicas instead of holding N
// identical int8 copies.  `src` must already be quantized.
void share_quantized_weights(PpModel& dst, PpModel& src);

// Copies hop `h` (feature width f) out of an expanded batch.
inline Tensor slice_hop(const Tensor& batch, std::size_t h, std::size_t f) {
  Tensor out({batch.rows(), f});
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    std::memcpy(out.row(i), batch.row(i) + h * f, f * sizeof(float));
  }
  return out;
}

}  // namespace ppgnn::core
