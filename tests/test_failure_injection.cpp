// Failure-injection tests: every misuse or broken environment the library
// can see should fail loudly with a typed exception, never by corrupting
// results.  Covers the storage loader (missing / truncated / permission-
// denied files), out-of-range reads, and trainer misconfiguration.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "loader/storage.h"
#include "tensor/rng.h"

namespace ppgnn {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string("ppgnn_failtest_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<Tensor> small_hops(std::size_t rows = 16, std::size_t hops = 2,
                               std::size_t dim = 4) {
  Rng rng(1);
  std::vector<Tensor> out;
  for (std::size_t h = 0; h <= hops; ++h) {
    out.push_back(Tensor::normal({rows, dim}, rng));
  }
  return out;
}

// ------------------------------------------------------------- storage ----

TEST(StorageFailures, OpenMissingDirectoryThrows) {
  EXPECT_THROW(
      loader::FeatureFileStore::open("/nonexistent/ppgnn", 16, 3, 4),
      std::runtime_error);
}

TEST(StorageFailures, OpenMissingHopFileThrows) {
  const auto dir = temp_dir("missing_hop");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  // Remove one hop file and reopen: must throw, not read garbage.
  fs::remove(fs::path(dir) / "hop_1.bin");
  EXPECT_THROW(loader::FeatureFileStore::open(dir, 16, 3, 4),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(StorageFailures, TruncationDetectedAtOpenAndAtRead) {
  const auto dir = temp_dir("truncated");
  // Truncated after open (the store keeps its fds): the pread hits EOF
  // mid-read and fails at use time.
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  const auto path = (fs::path(dir) / "hop_0.bin").string();
  fs::resize_file(path, fs::file_size(path) / 2);
  Tensor out({8, 3 * 4});
  EXPECT_THROW(store.read_chunk(8, 8, out), std::runtime_error);
  // Truncated before open: the file-length check (which also pins down
  // the row codec) fails loudly up front instead of on first read.
  EXPECT_THROW(loader::FeatureFileStore::open(dir, 16, 3, 4),
               std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, OutOfRangeChunkThrows) {
  const auto dir = temp_dir("oob_chunk");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor out({8, 3 * 4});
  EXPECT_THROW(store.read_chunk(12, 8, out), std::out_of_range);
  EXPECT_THROW(store.read_chunk(16, 1, out), std::out_of_range);
  fs::remove_all(dir);
}

TEST(StorageFailures, OutOfRangeRowThrows) {
  const auto dir = temp_dir("oob_row");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor out({2, 3 * 4});
  EXPECT_THROW(store.read_rows({0, 16}, out), std::out_of_range);
  EXPECT_THROW(store.read_rows({-1, 0}, out), std::out_of_range);
  fs::remove_all(dir);
}

TEST(StorageFailures, MismatchedOutputShapeThrows) {
  const auto dir = temp_dir("bad_shape");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor wrong({4, 5});  // wrong width
  EXPECT_THROW(store.read_chunk(0, 4, wrong), std::invalid_argument);
  EXPECT_THROW(store.read_rows({0, 1, 2, 3}, wrong), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, CreateRejectsInconsistentHopShapes) {
  const auto dir = temp_dir("inconsistent");
  Rng rng(2);
  std::vector<Tensor> hops;
  hops.push_back(Tensor::normal({16, 4}, rng));
  hops.push_back(Tensor::normal({16, 5}, rng));  // different dim
  EXPECT_THROW(loader::FeatureFileStore::create(dir, hops),
               std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, CreateRejectsOutOfRangeRowSelection) {
  const auto dir = temp_dir("bad_selection");
  for (const auto codec : {loader::RowCodec::kFp32, loader::RowCodec::kInt8}) {
    for (const std::int64_t bad : {std::int64_t{16}, std::int64_t{-1}}) {
      const std::vector<std::int64_t> rows = {0, 5, bad, 7};
      EXPECT_THROW(
          loader::FeatureFileStore::create(dir, small_hops(), codec, &rows),
          std::out_of_range);
    }
  }
  fs::remove_all(dir);
}

TEST(StorageFailures, RoundTripSurvivesReopen) {
  // Positive control for the failure cases above: an intact store read
  // through a fresh open() returns bit-identical data.
  const auto dir = temp_dir("roundtrip");
  const auto hops = small_hops();
  {
    auto store = loader::FeatureFileStore::create(dir, hops);
  }
  auto store = loader::FeatureFileStore::open(dir, 16, 3, 4);
  Tensor out({16, 3 * 4});
  store.read_chunk(0, 16, out);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t h = 0; h <= 2; ++h) {
      for (std::size_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out.at(i, h * 4 + d), hops[h].at(i, d));
      }
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------- trainer ----

TEST(TrainerFailures, RejectsZeroBatchOrEpochs) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc model(ds.feature_dim(), 2, ds.num_classes, rng);

  core::PpTrainConfig tc;
  tc.epochs = 0;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
  tc.epochs = 1;
  tc.batch_size = 0;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
}

TEST(TrainerFailures, RejectsHopMismatchBetweenModelAndPreprocessing) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  // Model wants 4 hops; preprocessing provides 2 — width mismatch must
  // surface as an exception from the first forward, not silent slicing.
  core::Sgc model(ds.feature_dim(), 4, ds.num_classes, rng);
  core::PpTrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
}

TEST(TrainerFailures, StorageModeRejectsHopMismatch) {
  // As above, with batches read from the file store: the store holds
  // preprocessing's 3 hop files, and the 5-hop model's first forward
  // rejects the narrower rows.
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc model(ds.feature_dim(), 4, ds.num_classes, rng);
  core::PpTrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 64;
  tc.mode = core::LoadingMode::kStorageChunk;
  tc.storage_dir = temp_dir("storage_hop_mismatch");
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
  fs::remove_all(tc.storage_dir);
}

TEST(TrainerFailures, StorageModeWithUnwritableDirThrows) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc model(ds.feature_dim(), 2, ds.num_classes, rng);
  core::PpTrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  tc.mode = core::LoadingMode::kStorageChunk;
  tc.storage_dir = "/proc/ppgnn_unwritable";  // cannot create files here
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::runtime_error);
}

// ---------------------------------------------------------- precompute ----

TEST(PrecomputeFailures, RejectsFeatureRowMismatch) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  Rng rng(1);
  const Tensor wrong = Tensor::normal({ds.num_nodes() + 1, 8}, rng);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  EXPECT_THROW(core::precompute(ds.graph, wrong, pc), std::invalid_argument);
}

TEST(PrecomputeFailures, MultiOperatorRejectsEmptyAndMismatchedHops) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  EXPECT_THROW(core::precompute_multi(ds.graph, ds.features, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppgnn
