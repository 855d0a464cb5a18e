#include "core/sgc.h"

#include <stdexcept>

namespace ppgnn::core {

Sgc::Sgc(std::size_t feat_dim, std::size_t hops, std::size_t classes, Rng& rng)
    : feat_dim_(feat_dim), hops_(hops), linear_(feat_dim, classes, rng) {}

Tensor Sgc::forward(const Tensor& batch, bool train) {
  if (batch.cols() != (hops_ + 1) * feat_dim_) {
    throw std::invalid_argument("Sgc: batch width mismatch");
  }
  return linear_.forward(slice_hop(batch, hops_, feat_dim_), train);
}

void Sgc::backward(const Tensor& grad_logits) {
  linear_.backward_params(grad_logits);
}

void Sgc::collect_params(std::vector<nn::ParamSlot>& out) {
  linear_.collect_params(out);
}

}  // namespace ppgnn::core
