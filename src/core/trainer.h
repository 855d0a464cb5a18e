// PP-GNN training loop with pluggable data-loading strategies.
//
// The strategies mirror the paper's optimization ladder (Section 4):
//   kBaselinePerRow — PyTorch-DataLoader-style row-at-a-time assembly
//   kFusedAssembly  — one indexed gather per batch, still synchronous
//   kPrefetch       — fused assembly on a loader thread, double-buffered
//   kChunkPrefetch  — chunk-reshuffled order + prefetching (bulk-friendly)
//   kStorageChunk   — chunk-reshuffled reads from the on-disk feature store
// Accuracy-affecting choices (the epoch order) are identical between
// kPrefetch (SGD-RR) and kChunkPrefetch/kStorageChunk (SGD-CR), so Figure 8
// and Table 6 compare exactly what the paper compares.
//
// kStorageChunk holds no copy of the training set: train_pp writes each
// hop's training rows from the caller's Preprocessed straight to the file
// store, and while it trains, what it keeps resident of the features is
// the store's file descriptors and the batches in flight (the prefetch
// queue's, the one training, and processed batches' tensors kept for
// reuse).  The other modes materialize the expanded training set in RAM.
#pragma once

#include <string>

#include "core/metrics.h"
#include "core/pp_model.h"
#include "core/precompute.h"
#include "graph/dataset.h"

namespace ppgnn::core {

enum class LoadingMode {
  kBaselinePerRow,
  kFusedAssembly,
  kPrefetch,
  kChunkPrefetch,
  kStorageChunk,
};
const char* to_string(LoadingMode m);

struct PpTrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 512;
  float lr = 1e-2f;
  float weight_decay = 0.f;
  // Chunk size for the chunk-reshuffling modes (ignored for RR modes).
  std::size_t chunk_size = 512;
  std::size_t eval_every = 1;
  std::uint64_t seed = 7;
  LoadingMode mode = LoadingMode::kPrefetch;
  // Directory for kStorageChunk's feature files (created if needed).
  std::string storage_dir = "/tmp/ppgnn_store";
  // Full training-state checkpointing (parameters + Adam moments + epoch
  // cursor; see core/checkpoint.h).  Empty path disables it.  When the
  // file already exists, train_pp resumes from it: the epoch schedule is
  // replayed deterministically up to the saved cursor, so an interrupted
  // run and an uninterrupted one follow the same trajectory.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;  // epochs between saves
};

struct PpTrainResult {
  TrainHistory history;
  std::size_t train_rows = 0;
  std::size_t row_bytes = 0;
  std::size_t bytes_loaded_per_epoch = 0;
};

PpTrainResult train_pp(PpModel& model, const Preprocessed& pre,
                       const graph::Dataset& ds, const PpTrainConfig& cfg);

// Batched inference accuracy on an index set (no dropout).
double evaluate_pp(PpModel& model, const Preprocessed& pre,
                   const graph::Dataset& ds,
                   const std::vector<std::int64_t>& idx,
                   std::size_t batch_size = 2048);

// Minimal deployment-prep training: a few Adam epochs over all rows with
// per-node labels, no splits/metrics/checkpointing.  serve_cli and the
// serving bench use it before deploying a model — an untrained model's
// near-tie logits would make precision-agreement measurements (the int8
// gate) meaningless.  For real experiments use train_pp above.
void quick_train(PpModel& model, const Preprocessed& pre,
                 const std::vector<std::int32_t>& labels, std::size_t epochs,
                 float lr = 1e-2f, std::size_t batch_size = 512,
                 std::uint64_t seed = 123);

}  // namespace ppgnn::core
