#include "core/hoga.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace ppgnn::core {

Hoga::Hoga(const HogaConfig& cfg, Rng& rng)
    : cfg_(cfg),
      proj_(cfg.feat_dim, cfg.hidden, rng),
      norm_(cfg.hidden),
      attn_(cfg.hidden, cfg.heads, rng),
      attn_drop_(cfg.dropout, rng),
      head_({cfg.hidden, cfg.hidden, cfg.classes}, cfg.dropout, rng) {
  if (cfg_.feat_dim == 0 || cfg_.classes == 0) {
    throw std::invalid_argument("Hoga: feat_dim and classes required");
  }
}

Tensor Hoga::forward(const Tensor& batch, bool train) {
  const std::size_t tokens = cfg_.hops + 1;
  if (batch.cols() != tokens * cfg_.feat_dim) {
    throw std::invalid_argument("Hoga: batch width mismatch");
  }
  batch_rows_ = batch.rows();
  // The hop-major expanded row layout [hop0 | ... | hopR] is exactly a
  // [b*tokens, F] matrix — one shared projection GEMM covers all tokens.
  Tensor t = proj_.forward(
      batch.reshaped({batch_rows_ * tokens, cfg_.feat_dim}), train);
  Tensor n = norm_.forward(t, train);
  Tensor a = attn_.forward(n.reshaped({batch_rows_, tokens, cfg_.hidden}),
                           train)
                 .reshaped({batch_rows_ * tokens, cfg_.hidden});
  a = attn_drop_.forward(a, train);
  add_inplace(a, t);  // residual

  // Mean-pool tokens.
  Tensor pooled({batch_rows_, cfg_.hidden});
  const float inv = 1.f / static_cast<float>(tokens);
  for (std::size_t i = 0; i < batch_rows_; ++i) {
    float* p = pooled.row(i);
    for (std::size_t tk = 0; tk < tokens; ++tk) {
      const float* r = a.row(i * tokens + tk);
      for (std::size_t j = 0; j < cfg_.hidden; ++j) p[j] += inv * r[j];
    }
  }
  return head_.forward(pooled, train);
}

void Hoga::backward(const Tensor& grad_logits) {
  const std::size_t tokens = cfg_.hops + 1;
  const Tensor d_pooled = head_.backward(grad_logits);

  // Broadcast the pooling gradient to every token.
  Tensor d_res({batch_rows_ * tokens, cfg_.hidden});
  const float inv = 1.f / static_cast<float>(tokens);
  for (std::size_t i = 0; i < batch_rows_; ++i) {
    const float* g = d_pooled.row(i);
    for (std::size_t tk = 0; tk < tokens; ++tk) {
      float* r = d_res.row(i * tokens + tk);
      for (std::size_t j = 0; j < cfg_.hidden; ++j) r[j] = inv * g[j];
    }
  }

  // Residual: gradient flows through both the attention branch and skip.
  Tensor d_attn = attn_drop_.backward(d_res);
  Tensor d_norm =
      attn_.backward(d_attn.reshaped({batch_rows_, tokens, cfg_.hidden}))
          .reshaped({batch_rows_ * tokens, cfg_.hidden});
  Tensor d_t = norm_.backward(d_norm);
  add_inplace(d_t, d_res);  // skip-path gradient
  proj_.backward_params(d_t);
}

void Hoga::collect_params(std::vector<nn::ParamSlot>& out) {
  proj_.collect_params(out);
  norm_.collect_params(out);
  attn_.collect_params(out);
  head_.collect_params(out);
}

}  // namespace ppgnn::core
