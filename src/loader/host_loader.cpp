#include "loader/host_loader.h"

#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"

namespace ppgnn::loader {

BatchSource::BatchSource(const Tensor* features, const std::int32_t* labels,
                         std::size_t batch_size)
    : BatchSource(features != nullptr ? features->rows() : 0, labels,
                  batch_size) {
  if (features == nullptr) {
    throw std::invalid_argument("BatchSource: bad arguments");
  }
  features_ = features;
}

BatchSource::BatchSource(std::size_t num_samples, const std::int32_t* labels,
                         std::size_t batch_size)
    : num_samples_(num_samples), labels_(labels), batch_size_(batch_size) {
  if (batch_size_ == 0) {
    throw std::invalid_argument("BatchSource: bad arguments");
  }
  // Default order: identity (callers normally install a shuffled order).
  order_.resize(num_samples_);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<std::int64_t>(i);
  }
}

void BatchSource::set_epoch_order(std::vector<std::int64_t> order) {
  if (order.size() != num_samples_) {
    throw std::invalid_argument("set_epoch_order: order size mismatch");
  }
  order_ = std::move(order);
}

const Tensor& BatchSource::features() const {
  if (features_ == nullptr) {
    throw std::logic_error("BatchSource: no in-memory features to assemble");
  }
  return *features_;
}

std::vector<std::int64_t> BatchSource::batch_indices(
    std::size_t batch_idx) const {
  const std::size_t lo = batch_idx * batch_size_;
  if (lo >= order_.size()) {
    throw std::out_of_range("batch_indices: batch index out of range");
  }
  const std::size_t hi = std::min(lo + batch_size_, order_.size());
  return {order_.begin() + static_cast<std::ptrdiff_t>(lo),
          order_.begin() + static_cast<std::ptrdiff_t>(hi)};
}

MiniBatch BatchSource::index_batch(std::size_t batch_idx) const {
  MiniBatch mb;
  mb.indices = batch_indices(batch_idx);
  mb.labels.resize(mb.indices.size());
  for (std::size_t i = 0; i < mb.indices.size(); ++i) {
    mb.labels[i] =
        labels_ != nullptr ? labels_[static_cast<std::size_t>(mb.indices[i])]
                           : -1;
  }
  return mb;
}

MiniBatch BatchSource::assemble_baseline(std::size_t batch_idx) const {
  const Tensor& src_rows = features();
  MiniBatch mb;
  mb.indices = batch_indices(batch_idx);
  const std::size_t row = src_rows.row_size();
  mb.features = Tensor({mb.indices.size(), row});
  mb.labels.resize(mb.indices.size());
  // Deliberately row-at-a-time, one "call" per item — the per-item
  // bookkeeping (bounds check, row pointer computation, separate copy) is
  // the behaviour being modelled, so do not batch these copies.
  for (std::size_t i = 0; i < mb.indices.size(); ++i) {
    const auto src = static_cast<std::size_t>(mb.indices[i]);
    if (src >= src_rows.rows()) {
      throw std::out_of_range("assemble_baseline: row out of range");
    }
    std::memcpy(mb.features.row(i), src_rows.row(src), row * sizeof(float));
    mb.labels[i] = labels_ != nullptr ? labels_[src] : -1;
  }
  return mb;
}

MiniBatch BatchSource::assemble_fused(std::size_t batch_idx) const {
  const Tensor& src_rows = features();
  MiniBatch mb = index_batch(batch_idx);
  mb.features = Tensor({mb.indices.size(), src_rows.row_size()});
  gather_rows(src_rows, mb.indices, mb.features);
  return mb;
}

}  // namespace ppgnn::loader
