#include "core/ssgc.h"

#include <stdexcept>
#include <utility>

#include "tensor/ops.h"

namespace ppgnn::core {

Ssgc::Ssgc(std::size_t feat_dim, std::size_t hops, std::size_t classes,
           Rng& rng, float alpha)
    : feat_dim_(feat_dim), hops_(hops), alpha_(alpha),
      linear_(feat_dim, classes, rng) {
  if (hops == 0) throw std::invalid_argument("Ssgc: needs at least one hop");
  if (alpha < 0.f || alpha > 1.f) {
    throw std::invalid_argument("Ssgc: alpha must be in [0, 1]");
  }
}

Tensor Ssgc::forward(const Tensor& batch, bool train) {
  if (batch.cols() != (hops_ + 1) * feat_dim_) {
    throw std::invalid_argument("Ssgc: batch width mismatch");
  }
  // H = (1/R) sum_{r=1..R} [(1-a) hop_r + a hop_0]
  //   = (1-a)/R * sum_{r>=1} hop_r + a * hop_0.
  Tensor h = slice_hop(batch, 0, feat_dim_);
  scale_inplace(h, alpha_);
  const float w = (1.f - alpha_) / static_cast<float>(hops_);
  for (std::size_t r = 1; r <= hops_; ++r) {
    const Tensor hop = slice_hop(batch, r, feat_dim_);
    axpy(w, hop, h);
  }
  return linear_.forward(std::move(h), train);
}

void Ssgc::backward(const Tensor& grad_logits) {
  // The hop average is a fixed linear map of the (constant) input batch, so
  // only the linear layer accumulates gradients.
  linear_.backward_params(grad_logits);
}

void Ssgc::collect_params(std::vector<nn::ParamSlot>& out) {
  linear_.collect_params(out);
}

}  // namespace ppgnn::core
