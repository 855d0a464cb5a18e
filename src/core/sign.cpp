#include "core/sign.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace ppgnn::core {

namespace {
std::vector<std::size_t> head_dims(const SignConfig& cfg) {
  std::vector<std::size_t> dims;
  dims.push_back((cfg.hops + 1) * cfg.hidden);
  for (std::size_t i = 0; i + 2 < cfg.mlp_layers; ++i) {
    dims.push_back(cfg.hidden);
  }
  dims.push_back(cfg.hidden);
  dims.push_back(cfg.classes);
  return dims;
}
}  // namespace

Sign::Sign(const SignConfig& cfg, Rng& rng)
    : cfg_(cfg), head_(head_dims(cfg), cfg.dropout, rng) {
  if (cfg_.feat_dim == 0 || cfg_.classes == 0) {
    throw std::invalid_argument("Sign: feat_dim and classes required");
  }
  for (std::size_t h = 0; h <= cfg_.hops; ++h) {
    branches_.push_back(
        std::make_unique<nn::Linear>(cfg_.feat_dim, cfg_.hidden, rng));
    branch_relus_.push_back(std::make_unique<nn::ReLU>());
    branch_drops_.push_back(std::make_unique<nn::Dropout>(cfg_.dropout, rng));
  }
}

Tensor Sign::forward(const Tensor& batch, bool train) {
  if (batch.cols() != (cfg_.hops + 1) * cfg_.feat_dim) {
    throw std::invalid_argument("Sign: batch width mismatch");
  }
  branch_outputs_.clear();
  branch_outputs_.reserve(cfg_.hops + 1);
  for (std::size_t h = 0; h <= cfg_.hops; ++h) {
    Tensor z = branches_[h]->forward(slice_hop(batch, h, cfg_.feat_dim), train);
    z = branch_relus_[h]->forward(z, train);
    z = branch_drops_[h]->forward(z, train);
    branch_outputs_.push_back(std::move(z));
  }
  std::vector<const Tensor*> parts;
  parts.reserve(branch_outputs_.size());
  for (const auto& t : branch_outputs_) parts.push_back(&t);
  return head_.forward(concat_cols(parts), train);
}

void Sign::backward(const Tensor& grad_logits) {
  const Tensor d_concat = head_.backward(grad_logits);
  // Split the concat gradient back into per-hop branch gradients.
  std::vector<Tensor> grads;
  grads.reserve(cfg_.hops + 1);
  std::vector<Tensor*> parts;
  for (std::size_t h = 0; h <= cfg_.hops; ++h) {
    grads.emplace_back(
        std::vector<std::size_t>{d_concat.rows(), cfg_.hidden});
    parts.push_back(&grads.back());
  }
  split_cols(d_concat, parts);
  for (std::size_t h = 0; h <= cfg_.hops; ++h) {
    Tensor g = branch_drops_[h]->backward(grads[h]);
    g = branch_relus_[h]->backward(g);
    branches_[h]->backward_params(g);
  }
}

void Sign::collect_params(std::vector<nn::ParamSlot>& out) {
  for (auto& b : branches_) b->collect_params(out);
  head_.collect_params(out);
}

void Sign::collect_linears(std::vector<nn::Linear*>& out) {
  for (auto& b : branches_) b->collect_linears(out);
  head_.collect_linears(out);
}

}  // namespace ppgnn::core
