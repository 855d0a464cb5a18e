// Fully connected layer: Y = X @ W + b.
//
// Supports an optional post-training INT8 inference path: quantize_int8()
// snapshots the fp32 weights as a per-output-channel symmetric int8 matrix
// (stored transposed, [out, in], so each output's scale is constant along
// the k-sum), and eval-mode forward then runs the INT8 x INT8 -> INT32
// GEMM from tensor/quant.h, dequantizing at the epilogue.  Training always
// uses the fp32 weights — quantization is a deployment transform, not a
// training scheme.  The quantized block is immutable and held by
// shared_ptr so N serving replicas of the same checkpoint share one copy
// (see share_quantized / serve::FleetBuilder).
#pragma once

#include <memory>

#include "nn/module.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

namespace ppgnn::nn {

class Linear : public Module {
 public:
  // Xavier-uniform weight init; zero bias.  Pass use_bias=false for layers
  // folded into a following normalization.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         bool use_bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  // As above, but a training forward keeps x itself as the saved input
  // instead of a copy of it.
  Tensor forward(Tensor&& x, bool train);
  Tensor backward(const Tensor& grad_out) override;
  // The parameter half of backward(): accumulates dW and db but computes
  // no input gradient, for input layers whose input is data.
  void backward_params(const Tensor& grad_out);
  void collect_params(std::vector<ParamSlot>& out) override;
  void collect_linears(std::vector<Linear*>& out) override {
    out.push_back(this);
  }

  std::size_t in_features() const { return weight_.rows(); }
  std::size_t out_features() const { return weight_.cols(); }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

  // Quantizes the current fp32 weights into the int8 inference block.
  // Deterministic, so two layers holding bit-identical fp32 weights
  // produce bit-identical quantized blocks.  Idempotent per weight state;
  // call again after mutating weights to refresh.
  void quantize_int8();
  // Adopts `src`'s (immutable) quantized block instead of re-quantizing —
  // replicas of one checkpoint share a single copy.  Shapes must match.
  void share_quantized(const Linear& src);
  bool is_quantized() const { return qweight_ != nullptr; }
  // Null until quantize_int8/share_quantized; [out, in] with per-out scales.
  std::shared_ptr<const QuantizedMatrix> quantized_weight() const {
    return qweight_;
  }

 private:
  Tensor affine(const Tensor& x) const;  // x @ W + b, fp32

  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out] (empty when bias disabled)
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;  // saved when train=true
  std::shared_ptr<const QuantizedMatrix> qweight_;  // [out, in] or null
};

}  // namespace ppgnn::nn
