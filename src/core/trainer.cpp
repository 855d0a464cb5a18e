#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/checkpoint.h"
#include "loader/host_loader.h"
#include "loader/prefetch.h"
#include "loader/shuffler.h"
#include "loader/storage.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace ppgnn::core {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

const char* to_string(LoadingMode m) {
  switch (m) {
    case LoadingMode::kBaselinePerRow: return "baseline-per-row";
    case LoadingMode::kFusedAssembly: return "fused-assembly";
    case LoadingMode::kPrefetch: return "prefetch (SGD-RR)";
    case LoadingMode::kChunkPrefetch: return "chunk-prefetch (SGD-CR)";
    case LoadingMode::kStorageChunk: return "storage-chunk (SGD-CR)";
  }
  return "?";
}

double evaluate_pp(PpModel& model, const Preprocessed& pre,
                   const graph::Dataset& ds,
                   const std::vector<std::int64_t>& idx,
                   std::size_t batch_size) {
  std::size_t correct = 0, total = 0;
  for (std::size_t lo = 0; lo < idx.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, idx.size());
    const std::vector<std::int64_t> rows(idx.begin() + lo, idx.begin() + hi);
    const Tensor logits =
        model.forward(pre.expanded_rows(rows), /*train=*/false);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto y = ds.labels[static_cast<std::size_t>(rows[i])];
      if (y < 0) continue;
      ++total;
      if (argmax_row(logits, i) == static_cast<std::size_t>(y)) ++correct;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

PpTrainResult train_pp(PpModel& model, const Preprocessed& pre,
                       const graph::Dataset& ds, const PpTrainConfig& cfg) {
  const auto& train_idx = ds.split.train;
  if (train_idx.empty()) throw std::invalid_argument("train_pp: empty split");
  if (cfg.epochs == 0) throw std::invalid_argument("train_pp: epochs == 0");
  if (cfg.batch_size == 0) {
    throw std::invalid_argument("train_pp: batch_size == 0");
  }
  if ((cfg.mode == LoadingMode::kChunkPrefetch ||
       cfg.mode == LoadingMode::kStorageChunk) &&
      cfg.chunk_size == 0) {
    throw std::invalid_argument("train_pp: chunk_size == 0 in chunked mode");
  }

  std::vector<std::int32_t> train_y(train_idx.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    train_y[i] = ds.labels[static_cast<std::size_t>(train_idx[i])];
  }

  const bool chunked = cfg.mode == LoadingMode::kChunkPrefetch ||
                       cfg.mode == LoadingMode::kStorageChunk;
  const auto shuffler =
      loader::make_shuffler(chunked ? cfg.chunk_size : std::size_t{1});

  // Storage mode writes the training rows of every hop straight from `pre`
  // to the file store and reads each batch back from it, so it holds no
  // copy of the training set.  The other modes materialize the expanded
  // training set once (hop-major rows), the array the loaders index into.
  // Either way, training position i is node train_idx[i].
  std::unique_ptr<loader::FeatureFileStore> store;
  Tensor train_x;
  if (cfg.mode == LoadingMode::kStorageChunk) {
    store = std::make_unique<loader::FeatureFileStore>(
        loader::FeatureFileStore::create(cfg.storage_dir, pre.hop_features,
                                         loader::RowCodec::kFp32,
                                         &train_idx));
  } else {
    train_x = pre.expanded_rows(train_idx);
  }
  loader::BatchSource source =
      store ? loader::BatchSource(train_idx.size(), train_y.data(),
                                  cfg.batch_size)
            : loader::BatchSource(&train_x, train_y.data(), cfg.batch_size);
  Rng rng(cfg.seed);
  std::vector<nn::ParamSlot> params;
  model.collect_params(params);
  nn::Adam opt(params, cfg.lr, 0.9f, 0.999f, 1e-8f, cfg.weight_decay);

  // Checkpoint resume: restore state and burn the already-consumed epoch
  // shuffles so the schedule continues exactly where the saved run left
  // off (epoch orders are a pure function of (seed, epoch index)).
  std::size_t start_epoch = 1;
  if (!cfg.checkpoint_path.empty() &&
      checkpoint_exists(cfg.checkpoint_path)) {
    const auto meta = load_checkpoint(cfg.checkpoint_path, model, opt);
    start_epoch = meta.next_epoch;
    for (std::size_t e = 1; e < start_epoch; ++e) {
      (void)shuffler->epoch_order(train_idx.size(), rng);
    }
  }

  PpTrainResult result;
  result.train_rows = train_idx.size();
  result.row_bytes = pre.row_bytes();
  result.bytes_loaded_per_epoch = result.train_rows * result.row_bytes;

  // Storage mode: feature tensors of processed batches, handed back to the
  // loader thread, which reads later batches of the same row count into
  // them instead of allocating and zero-filling a new tensor per batch.
  // Only an epoch's last batch can be short, so `spare` holds at most the
  // batches in flight plus that one.  read_chunk overwrites every element,
  // and no model keeps a reference to its batch past backward().
  std::mutex spare_mu;
  std::vector<Tensor> spare;

  // Assembles batch `k` according to the active mode; used directly for
  // synchronous modes and through the prefetcher for pipelined ones.
  const auto assemble = [&](std::size_t k) -> loader::MiniBatch {
    switch (cfg.mode) {
      case LoadingMode::kBaselinePerRow:
        return source.assemble_baseline(k);
      case LoadingMode::kStorageChunk: {
        // Read the batch as contiguous runs from the file store (chunk
        // reshuffling makes batches mostly contiguous on disk), each run
        // straight into its rows of the batch.
        loader::MiniBatch mb = source.index_batch(k);
        {
          std::lock_guard<std::mutex> lk(spare_mu);
          const auto it =
              std::find_if(spare.begin(), spare.end(), [&](const Tensor& t) {
                return t.rows() == mb.indices.size();
              });
          if (it != spare.end()) {
            mb.features = std::move(*it);
            spare.erase(it);
          }
        }
        if (mb.features.empty()) {
          mb.features = Tensor(
              {mb.indices.size(), store->num_hops() * store->hop_dim()});
        }
        std::size_t i = 0;
        while (i < mb.indices.size()) {
          std::size_t run = 1;
          while (i + run < mb.indices.size() &&
                 mb.indices[i + run] == mb.indices[i + run - 1] + 1) {
            ++run;
          }
          store->read_chunk(static_cast<std::size_t>(mb.indices[i]), run,
                            mb.features.row(i));
          i += run;
        }
        return mb;
      }
      default:
        return source.assemble_fused(k);
    }
  };

  const bool pipelined = cfg.mode == LoadingMode::kPrefetch ||
                         cfg.mode == LoadingMode::kChunkPrefetch ||
                         cfg.mode == LoadingMode::kStorageChunk;

  // Pipelined modes start epoch e+1's loader as soon as epoch e's last
  // batch has been handed over, so that its first batches are read while
  // that batch trains.  Its order is drawn from `rng`, in sequence, when
  // epoch e begins (off the training steps), and installed only after
  // epoch e's producer has been joined; each producer serves one epoch.
  std::optional<loader::PrefetchingLoader> prefetcher;
  std::vector<std::int64_t> next_order;
  const auto draw_order = [&] {
    return shuffler->epoch_order(train_idx.size(), rng);
  };

  for (std::size_t epoch = start_epoch; epoch <= cfg.epochs; ++epoch) {
    const auto t_epoch = Clock::now();
    if (!pipelined || epoch == start_epoch) {
      source.set_epoch_order(draw_order());
      if (pipelined) prefetcher.emplace(assemble, source.num_batches());
    }
    if (pipelined && epoch < cfg.epochs) next_order = draw_order();
    EpochRecord rec;
    rec.epoch = epoch;
    double loss_sum = 0;
    for (std::size_t k = 0; k < source.num_batches(); ++k) {
      const auto t_load = Clock::now();
      loader::MiniBatch mb;
      if (pipelined) {
        if (!prefetcher->next(mb)) {
          throw std::logic_error("train_pp: loader ended mid-epoch");
        }
      } else {
        mb = assemble(k);
      }
      rec.data_loading_seconds += seconds_since(t_load);  // stall time only
      if (pipelined && k + 1 == source.num_batches()) {
        prefetcher.reset();
        if (epoch < cfg.epochs) {
          source.set_epoch_order(std::move(next_order));
          prefetcher.emplace(assemble, source.num_batches());
        }
      }
      const auto t_fwd = Clock::now();
      Tensor logits = model.forward(mb.features, /*train=*/true);
      Tensor grad(logits.shape());
      loss_sum += cross_entropy(logits, mb.labels, grad);
      rec.forward_seconds += seconds_since(t_fwd);
      const auto t_bwd = Clock::now();
      opt.zero_grad();
      model.backward(grad);
      rec.backward_seconds += seconds_since(t_bwd);
      const auto t_opt = Clock::now();
      opt.step();
      rec.optimizer_seconds += seconds_since(t_opt);
      if (store) {
        std::lock_guard<std::mutex> lk(spare_mu);
        spare.push_back(std::move(mb.features));
      }
    }

    rec.epoch_seconds = seconds_since(t_epoch);
    rec.train_loss = loss_sum / static_cast<double>(source.num_batches());

    if (epoch % cfg.eval_every == 0 || epoch == cfg.epochs) {
      rec.val_acc = evaluate_pp(model, pre, ds, ds.split.valid);
      rec.test_acc = evaluate_pp(model, pre, ds, ds.split.test);
    } else if (!result.history.epochs.empty()) {
      rec.val_acc = result.history.epochs.back().val_acc;
      rec.test_acc = result.history.epochs.back().test_acc;
    }
    result.history.epochs.push_back(rec);

    if (!cfg.checkpoint_path.empty() && cfg.checkpoint_every > 0 &&
        (epoch % cfg.checkpoint_every == 0 || epoch == cfg.epochs)) {
      CheckpointMeta meta;
      meta.next_epoch = epoch + 1;
      meta.step_count = opt.step_count();
      save_checkpoint(cfg.checkpoint_path, model, opt, meta);
    }
  }
  return result;
}

void quick_train(PpModel& model, const Preprocessed& pre,
                 const std::vector<std::int32_t>& labels, std::size_t epochs,
                 float lr, std::size_t batch_size, std::uint64_t seed) {
  if (labels.size() < pre.num_nodes()) {
    throw std::invalid_argument("quick_train: labels shorter than node set");
  }
  std::vector<nn::ParamSlot> slots;
  model.collect_params(slots);
  nn::Adam opt(slots, lr);
  Rng rng(seed);
  const std::size_t n = pre.num_nodes();
  std::vector<std::int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    for (std::size_t lo = 0; lo < n; lo += batch_size) {
      const std::size_t hi = std::min(n, lo + batch_size);
      const std::vector<std::int64_t> idx(order.begin() + lo,
                                          order.begin() + hi);
      const Tensor batch = pre.expanded_rows(idx);
      std::vector<std::int32_t> lbl(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) {
        lbl[i] = labels[static_cast<std::size_t>(idx[i])];
      }
      Tensor logits = model.forward(batch, true);
      Tensor grad({logits.rows(), logits.cols()});
      cross_entropy(logits, lbl, grad);
      for (auto& s : slots) s.grad->zero();
      model.backward(grad);
      opt.step();
    }
  }
}

}  // namespace ppgnn::core
