// Host-side batch assembly over in-memory training data.
//
// Two assembly kernels mirror the paper's Section 4.1:
//   - assemble_baseline: extracts node vectors one at a time (the PyTorch
//     DataLoader default path, Figure 6a);
//   - assemble_fused: a single indexed gather per batch (the customized
//     data loader).
// Both are *real* implementations; unit tests assert they produce identical
// batches and the kernel benchmark measures their actual gap on this CPU.
#pragma once

#include <cstdint>
#include <vector>

#include "loader/shuffler.h"
#include "tensor/tensor.h"

namespace ppgnn::loader {

struct MiniBatch {
  Tensor features;                    // [b, row_dim]
  std::vector<std::int32_t> labels;   // [b]
  std::vector<std::int64_t> indices;  // source rows (into the train set)
};

// One epoch's batches over a training set of num_samples rows: the visit
// order (from a Shuffler), its batch boundaries and the labels.  Given the
// features in memory (one row per training sample, already
// preprocessed/expanded) it also assembles batches; storage-mode training
// reads its rows from a FeatureFileStore and gives none.
class BatchSource {
 public:
  BatchSource(const Tensor* features, const std::int32_t* labels,
              std::size_t batch_size);
  // No in-memory features: index_batch() only.
  BatchSource(std::size_t num_samples, const std::int32_t* labels,
              std::size_t batch_size);

  std::size_t num_samples() const { return num_samples_; }
  std::size_t batch_size() const { return batch_size_; }
  std::size_t num_batches() const {
    return (num_samples() + batch_size_ - 1) / batch_size_;
  }

  // Installs this epoch's visit order (from a Shuffler).
  void set_epoch_order(std::vector<std::int64_t> order);

  // Batch `batch_idx`'s indices and labels, features left empty.
  MiniBatch index_batch(std::size_t batch_idx) const;
  // Row-at-a-time extraction (baseline loader).  Needs in-memory features.
  MiniBatch assemble_baseline(std::size_t batch_idx) const;
  // One fused gather (customized loader).  Needs in-memory features.
  MiniBatch assemble_fused(std::size_t batch_idx) const;

 private:
  std::vector<std::int64_t> batch_indices(std::size_t batch_idx) const;
  const Tensor& features() const;

  const Tensor* features_ = nullptr;
  std::size_t num_samples_ = 0;
  const std::int32_t* labels_;
  std::size_t batch_size_;
  std::vector<std::int64_t> order_;
};

}  // namespace ppgnn::loader
