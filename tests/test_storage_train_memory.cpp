// Storage-mode training keeps no copy of the training set in memory: while
// train_pp runs in kStorageChunk mode, the process's live heap rises above
// its level at the call by less than a quarter of the expanded training
// set's bytes.  Live bytes are counted by replacing the global operator
// new / delete, so this test is a binary of its own.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "graph/generator.h"
#include "tensor/rng.h"

// Live and peak live heap bytes of this process.  Sanitizer runtimes
// define every operator new / delete form themselves, so each form the
// containers use is replaced here, not just the two that libstdc++
// forwards the rest to.
namespace {
std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_peak_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  const long long live =
      g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  long long peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace ppgnn::core {
namespace {

// 60,000 SBM nodes with 32 features and 2 hops: 30,000 training rows of
// 384 bytes, 11.5 MB expanded.  That is large against what train_pp must
// hold besides a copy of them: an evaluation batch of 2,048 rows, a few
// 128-row training batches, the labels and the epoch order.
struct Fixture {
  graph::Dataset ds;
  Preprocessed pre;
  Fixture() {
    graph::SbmConfig gc;
    gc.num_nodes = 60000;
    gc.num_classes = 4;
    gc.seed = 5;
    graph::SbmGraph sbm = graph::generate_sbm(gc);
    graph::FeatureConfig fc;
    fc.dim = 32;
    fc.seed = 6;
    ds.features = graph::generate_features(sbm.labels, gc.num_classes, fc);
    ds.graph = std::move(sbm.graph);
    ds.labels = std::move(sbm.labels);
    ds.num_classes = gc.num_classes;
    ds.split = graph::make_split(gc.num_nodes, graph::SplitConfig{});
    PrecomputeConfig pc;
    pc.hops = 2;
    pre = precompute(ds.graph, ds.features, pc);
  }
};

// Peak live heap bytes above the level at the call, over one train_pp.
long long train_peak_rise(const Fixture& f, LoadingMode mode) {
  Rng rng(3);
  Sgc model(f.ds.feature_dim(), 2, f.ds.num_classes, rng);
  PpTrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 128;
  tc.chunk_size = 128;
  tc.eval_every = tc.epochs;
  tc.mode = mode;
  tc.storage_dir = (std::filesystem::temp_directory_path() /
                    "ppgnn_storage_train_memory")
                       .string();
  const long long before = g_live_bytes.load();
  g_peak_bytes = before;
  const PpTrainResult r = train_pp(model, f.pre, f.ds, tc);
  const long long rise = g_peak_bytes.load() - before;
  EXPECT_EQ(r.history.epochs.size(), tc.epochs);
  for (const auto& e : r.history.epochs) {
    EXPECT_TRUE(std::isfinite(e.train_loss));
  }
  std::filesystem::remove_all(tc.storage_dir);
  return rise;
}

TEST(StorageTrainMemory, PeakLiveBytesStayUnderAQuarterOfTheTrainingSet) {
  const Fixture f;
  const auto train_set = static_cast<long long>(f.ds.split.train.size() *
                                                f.pre.row_bytes());
  ASSERT_EQ(f.ds.split.train.size(), 30000u);

  const long long storage = train_peak_rise(f, LoadingMode::kStorageChunk);
  EXPECT_LT(storage, train_set / 4)
      << "storage mode raised the peak live heap by " << storage
      << " bytes for a " << train_set << "-byte training set";

  // Control: the in-memory chunk mode materializes the training set, and
  // the counter sees it.
  const long long in_memory = train_peak_rise(f, LoadingMode::kChunkPrefetch);
  EXPECT_GE(in_memory, train_set);
  std::printf("training set %lld B; peak live heap rise: storage %lld B "
              "(%.3fx), in-memory chunks %lld B (%.3fx)\n",
              train_set, storage, static_cast<double>(storage) / train_set,
              in_memory, static_cast<double>(in_memory) / train_set);
}

}  // namespace
}  // namespace ppgnn::core
