#include "nn/linear.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/ops.h"

namespace ppgnn::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool use_bias)
    : weight_({in_features, out_features}),
      grad_weight_({in_features, out_features}) {
  const float bound =
      std::sqrt(6.f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::uniform({in_features, out_features}, rng, -bound, bound);
  if (use_bias) {
    bias_ = Tensor({out_features});
    grad_bias_ = Tensor({out_features});
  }
}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (!train && qweight_) {
    // INT8 inference path: asymmetric per-row quantized activations
    // against the per-output-channel symmetric quantized weights, offset
    // and bias folded into the epilogue.
    Tensor y;
    gemm_s8_nt(quantize_acts_per_row(x), *qweight_, y,
               bias_.empty() ? nullptr : &bias_);
    return y;
  }
  if (train) cached_input_ = x;
  return affine(x);
}

Tensor Linear::forward(Tensor&& x, bool train) {
  if (!train) return forward(x, false);
  cached_input_ = std::move(x);
  return affine(cached_input_);
}

Tensor Linear::affine(const Tensor& x) const {
  Tensor y = matmul(x, weight_);
  if (!bias_.empty()) add_row_vector(y, bias_);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  // dW += X^T dY, db += sum_rows(dY), dX = dY W^T.
  backward_params(grad_out);
  return matmul_nt(grad_out, weight_);
}

void Linear::backward_params(const Tensor& grad_out) {
  gemm(cached_input_, true, grad_out, false, grad_weight_, 1.f, 1.f);
  if (!bias_.empty()) {
    Tensor db({bias_.size()});
    sum_rows(grad_out, db);
    add_inplace(grad_bias_, db);
  }
}

void Linear::collect_params(std::vector<ParamSlot>& out) {
  out.push_back({&weight_, &grad_weight_, "linear.weight"});
  if (!bias_.empty()) out.push_back({&bias_, &grad_bias_, "linear.bias"});
}

void Linear::quantize_int8() {
  // Quantize W^T so rows are output channels: scale constant over the
  // k-sum, which is what lets gemm_s8_nt dequantize at the epilogue.
  Tensor wt({weight_.cols(), weight_.rows()});
  for (std::size_t i = 0; i < weight_.rows(); ++i) {
    for (std::size_t j = 0; j < weight_.cols(); ++j) {
      wt.at(j, i) = weight_.at(i, j);
    }
  }
  qweight_ = std::make_shared<const QuantizedMatrix>(quantize_per_row(wt));
}

void Linear::share_quantized(const Linear& src) {
  if (!src.qweight_) {
    throw std::invalid_argument("share_quantized: source is not quantized");
  }
  if (src.qweight_->rows != weight_.cols() ||
      src.qweight_->cols != weight_.rows()) {
    throw std::invalid_argument("share_quantized: shape mismatch");
  }
  qweight_ = src.qweight_;
}

}  // namespace ppgnn::nn
