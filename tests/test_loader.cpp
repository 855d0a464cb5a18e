#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <utility>

#include "loader/host_loader.h"
#include "loader/placement.h"
#include "loader/prefetch.h"
#include "loader/shuffler.h"
#include "loader/storage.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace ppgnn::loader {
namespace {

// 2-thread pools (caller plus one worker) unless the environment already
// chose a size, set before anything touches a pool: a 3-hop store's reads
// and writes on io_pool() then split into hops [0, 2) on the calling
// thread and hop 2 on the worker.
const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "2", 0);
  return true;
}();

// Runs f inside an io_pool() task, where the store's own io_pool() call
// runs serially on the calling thread.
template <class F>
void inside_pool_task(F&& f) {
  io_pool().parallel_for(1, [&](std::size_t, std::size_t) { f(); });
}

TEST(Shuffler, RandomReshuffleIsPermutation) {
  Rng rng(1);
  const RandomReshuffler rr;
  const auto order = rr.epoch_order(1000, rng);
  std::vector<bool> seen(1000, false);
  for (const auto i : order) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, 1000);
    EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(i)] = true;
  }
  // Actually shuffled (astronomically unlikely to be identity).
  bool identity = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<std::int64_t>(i)) identity = false;
  }
  EXPECT_FALSE(identity);
}

TEST(Shuffler, DifferentEpochsDiffer) {
  Rng rng(2);
  const RandomReshuffler rr;
  EXPECT_NE(rr.epoch_order(100, rng), rr.epoch_order(100, rng));
}

TEST(Shuffler, ChunkReshuffleKeepsRunsContiguous) {
  Rng rng(3);
  const ChunkReshuffler cr(10);
  const auto order = cr.epoch_order(100, rng);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; i += 10) {
    EXPECT_EQ(order[i] % 10, 0);  // runs start at chunk boundaries
    for (std::size_t j = 1; j < 10; ++j) {
      EXPECT_EQ(order[i + j], order[i] + static_cast<std::int64_t>(j));
    }
  }
}

TEST(Shuffler, ChunkReshuffleHandlesTail) {
  Rng rng(4);
  const ChunkReshuffler cr(8);
  const auto order = cr.epoch_order(21, rng);  // chunks of 8, 8, 5
  ASSERT_EQ(order.size(), 21u);
  std::unordered_set<std::int64_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 21u);
}

TEST(Shuffler, ChunkSizeOneEqualsRR) {
  // Same rng seed: chunk-1 reshuffling is exactly SGD-RR.
  Rng r1(5), r2(5);
  const ChunkReshuffler cr(1);
  const RandomReshuffler rr;
  EXPECT_EQ(cr.epoch_order(64, r1), rr.epoch_order(64, r2));
}

TEST(Shuffler, FactoryPicksImplementation) {
  EXPECT_EQ(make_shuffler(1)->name(), "SGD-RR");
  EXPECT_EQ(make_shuffler(8000)->name(), "SGD-CR(8000)");
  EXPECT_THROW(ChunkReshuffler(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------

class BatchSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(6);
    feats_ = Tensor::normal({103, 7}, rng);
    labels_.resize(103);
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      labels_[i] = static_cast<std::int32_t>(i % 5);
    }
  }
  Tensor feats_;
  std::vector<std::int32_t> labels_;
};

TEST_F(BatchSourceTest, BaselineAndFusedProduceIdenticalBatches) {
  BatchSource src(&feats_, labels_.data(), 16);
  Rng rng(7);
  src.set_epoch_order(RandomReshuffler().epoch_order(103, rng));
  ASSERT_EQ(src.num_batches(), 7u);  // ceil(103/16)
  for (std::size_t k = 0; k < src.num_batches(); ++k) {
    const MiniBatch a = src.assemble_baseline(k);
    const MiniBatch b = src.assemble_fused(k);
    EXPECT_TRUE(allclose(a.features, b.features));
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.indices, b.indices);
  }
}

TEST_F(BatchSourceTest, LastBatchIsShort) {
  BatchSource src(&feats_, labels_.data(), 16);
  const MiniBatch last = src.assemble_fused(6);
  EXPECT_EQ(last.features.rows(), 103u - 6 * 16);
}

TEST_F(BatchSourceTest, BatchContentMatchesOrder) {
  BatchSource src(&feats_, labels_.data(), 10);
  std::vector<std::int64_t> order(103);
  std::iota(order.rbegin(), order.rend(), 0);  // reversed
  src.set_epoch_order(order);
  const MiniBatch mb = src.assemble_fused(0);
  EXPECT_EQ(mb.indices[0], 102);
  EXPECT_TRUE(allclose(gather_rows(feats_, {102, 101}),
                       gather_rows(mb.features, {0, 1})));
  EXPECT_EQ(mb.labels[0], labels_[102]);
}

TEST_F(BatchSourceTest, Validation) {
  EXPECT_THROW(BatchSource(nullptr, labels_.data(), 4), std::invalid_argument);
  EXPECT_THROW(BatchSource(&feats_, labels_.data(), 0), std::invalid_argument);
  BatchSource src(&feats_, labels_.data(), 16);
  EXPECT_THROW(src.set_epoch_order({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(src.assemble_fused(99), std::out_of_range);
}

TEST_F(BatchSourceTest, RowCountSourceBatchesIndicesAndLabelsOnly) {
  // The storage-mode trainer's source: an order and labels, no features.
  BatchSource counted(103, labels_.data(), 16);
  BatchSource in_memory(&feats_, labels_.data(), 16);
  EXPECT_EQ(counted.num_samples(), 103u);
  EXPECT_EQ(counted.num_batches(), 7u);
  Rng r1(7), r2(7);
  counted.set_epoch_order(ChunkReshuffler(8).epoch_order(103, r1));
  in_memory.set_epoch_order(ChunkReshuffler(8).epoch_order(103, r2));
  for (std::size_t k = 0; k < counted.num_batches(); ++k) {
    const MiniBatch got = counted.index_batch(k);
    const MiniBatch want = in_memory.assemble_fused(k);
    EXPECT_EQ(got.indices, want.indices);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_TRUE(got.features.empty());
  }
  EXPECT_THROW(counted.assemble_fused(0), std::logic_error);
  EXPECT_THROW(counted.assemble_baseline(0), std::logic_error);
  EXPECT_THROW(counted.set_epoch_order({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(BatchSource(103, labels_.data(), 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(Prefetcher, DeliversAllBatchesInOrder) {
  Rng rng(8);
  Tensor feats = Tensor::normal({64, 4}, rng);
  std::vector<std::int32_t> labels(64, 1);
  BatchSource src(&feats, labels.data(), 8);
  PrefetchingLoader loader(
      [&](std::size_t k) { return src.assemble_fused(k); },
      src.num_batches());
  MiniBatch mb;
  std::size_t count = 0;
  std::int64_t expect_first = 0;
  while (loader.next(mb)) {
    EXPECT_EQ(mb.indices[0], expect_first);  // identity order
    expect_first += 8;
    ++count;
  }
  EXPECT_EQ(count, 8u);
  EXPECT_FALSE(loader.next(mb));  // exhausted stays exhausted
}

TEST(Prefetcher, ProducerRunsAheadAtMostTwo) {
  std::atomic<int> produced{0};
  PrefetchingLoader loader(
      [&](std::size_t) {
        ++produced;
        MiniBatch mb;
        mb.features = Tensor({1, 1});
        return mb;
      },
      10);
  // Give the producer time: it may fill the two buffers plus one in-flight.
  MiniBatch mb;
  ASSERT_TRUE(loader.next(mb));
  for (int spin = 0; spin < 1000 && produced.load() < 3; ++spin) {
    std::this_thread::yield();
  }
  EXPECT_LE(produced.load(), 4);  // 1 consumed + 2 buffered + 1 in flight
}

TEST(Prefetcher, ProducerExceptionReachesConsumer) {
  // A storage error on the loader thread must surface as an exception from
  // next() on the consumer thread — never std::terminate.
  PrefetchingLoader loader(
      [](std::size_t k) -> MiniBatch {
        if (k == 2) throw std::runtime_error("injected read failure");
        MiniBatch mb;
        mb.features = Tensor({1, 1});
        mb.labels = {0};
        mb.indices = {static_cast<std::int64_t>(k)};
        return mb;
      },
      /*num_batches=*/8);
  MiniBatch mb;
  std::size_t delivered = 0;
  try {
    while (loader.next(mb)) ++delivered;
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected read failure");
  }
  EXPECT_LE(delivered, 2u);
}

TEST(Prefetcher, DestructionWithUnconsumedBatchesIsClean) {
  auto loader = std::make_unique<PrefetchingLoader>(
      [](std::size_t) {
        MiniBatch mb;
        mb.features = Tensor({2, 2});
        return mb;
      },
      100);
  MiniBatch mb;
  ASSERT_TRUE(loader->next(mb));
  loader.reset();  // must join without deadlock
  SUCCEED();
}

// ---------------------------------------------------------------------------

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(9);
    for (int h = 0; h < 3; ++h) {
      hops_.push_back(Tensor::normal({50, 6}, rng));
    }
    dir_ = ::testing::TempDir() + "/ppgnn_store_test";
  }
  std::vector<Tensor> hops_;
  std::string dir_;
};

TEST_F(StorageTest, ChunkReadRoundTrips) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  EXPECT_EQ(store.num_rows(), 50u);
  EXPECT_EQ(store.row_bytes(), 3u * 6 * 4);
  Tensor out({10, 18});
  store.read_chunk(20, 10, out);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t h = 0; h < 3; ++h) {
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(out.at(i, h * 6 + j), hops_[h].at(20 + i, j));
      }
    }
  }
}

TEST_F(StorageTest, RandomRowReadMatchesChunkRead) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  Tensor rows({3, 18});
  store.read_rows({5, 49, 0}, rows);
  Tensor chunk({1, 18});
  store.read_chunk(49, 1, chunk);
  for (std::size_t j = 0; j < 18; ++j) {
    EXPECT_FLOAT_EQ(rows.at(1, j), chunk.at(0, j));
  }
}

TEST_F(StorageTest, ReopenSeesSameData) {
  { const auto store = FeatureFileStore::create(dir_, hops_); }
  const auto reopened = FeatureFileStore::open(dir_, 50, 3, 6);
  Tensor out({50, 18});
  reopened.read_chunk(0, 50, out);
  EXPECT_FLOAT_EQ(out.at(7, 0), hops_[0].at(7, 0));
  EXPECT_FLOAT_EQ(out.at(7, 12), hops_[2].at(7, 0));
}

TEST_F(StorageTest, BoundsChecked) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  Tensor out({10, 18});
  EXPECT_THROW(store.read_chunk(45, 10, out), std::out_of_range);
  Tensor bad({10, 7});
  EXPECT_THROW(store.read_chunk(0, 10, bad), std::invalid_argument);
  Tensor rows({1, 18});
  EXPECT_THROW(store.read_rows({50}, rows), std::out_of_range);
  EXPECT_THROW(store.read_rows({-1}, rows), std::out_of_range);
}

// A store larger than one preadv's IOV_MAX (1,024) iovecs per hop run,
// in both codecs.
class StoreReadTest : public ::testing::TestWithParam<RowCodec> {
 protected:
  void SetUp() override {
    Rng rng(13);
    for (int h = 0; h < 3; ++h) hops_.push_back(Tensor::normal({2500, 5}, rng));
    dir_ = ::testing::TempDir() + "/ppgnn_store_read_" +
           codec_name(GetParam());
  }
  static std::vector<std::int64_t> ids(std::size_t lo, std::size_t hi) {
    std::vector<std::int64_t> v(hi - lo);
    std::iota(v.begin(), v.end(), static_cast<std::int64_t>(lo));
    return v;
  }
  static void expect_same_bytes(const Tensor& got, const Tensor& want) {
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.bytes()), 0);
  }
  std::vector<Tensor> hops_;
  std::string dir_;
};

TEST_P(StoreReadTest, ChunkReadsEqualRowReadsAcrossIovMaxAndShortLastChunk) {
  const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
  const std::size_t width = 3 * 5;
  // One run past two IOV_MAX boundaries, then 1,024-row batches whose
  // last one is short (452 rows).
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 2500},
                               {0, 1024}, {1024, 2048}, {2048, 2500},
                               {7, 8}}) {
    SCOPED_TRACE(std::to_string(lo) + ".." + std::to_string(hi));
    Tensor chunk({hi - lo, width}), rows({hi - lo, width});
    store.read_chunk(lo, hi - lo, chunk);
    store.read_rows(ids(lo, hi), rows);
    expect_same_bytes(chunk, rows);
  }
}

TEST_P(StoreReadTest, RunsReadStraightIntoBatchRows) {
  // The trainer's storage assemble: several runs into one batch tensor.
  const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
  std::vector<std::int64_t> batch = ids(300, 1400);  // 1,100 rows
  const std::vector<std::int64_t> tail = ids(2490, 2500);
  batch.insert(batch.end(), tail.begin(), tail.end());
  Tensor got({batch.size(), 15}), want({batch.size(), 15});
  store.read_chunk(300, 1100, got.row(0));
  store.read_chunk(2490, 10, got.row(1100));
  store.read_rows(batch, want);
  expect_same_bytes(got, want);
}

TEST_P(StoreReadTest, PreadsCountOneSyscallEach) {
  const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
  Tensor out({2500, 15});
  std::uint64_t before = store.preads();
  store.read_chunk(0, 1024, out.row(0));  // one call per hop
  EXPECT_EQ(store.preads() - before, 3u);
  before = store.preads();
  store.read_chunk(0, 2500, out);
  // fp32 scatters each row with its own iovec, IOV_MAX per preadv: three
  // calls per hop; int8 reads each hop run into one buffer.
  EXPECT_EQ(store.preads() - before,
            GetParam() == RowCodec::kFp32 ? 9u : 3u);
}

TEST_P(StoreReadTest, TruncatedHopFileThrowsInsteadOfPartialBatch) {
  const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
  const auto path = dir_ + "/hop_2.bin";
  // Mid-record, 1,500 rows in: a chunk across the cut gets a short read
  // and then EOF.
  std::filesystem::resize_file(path,
                               1500 * store.hop_row_bytes() + 3);
  Tensor out({1024, 15});
  EXPECT_THROW(store.read_chunk(1024, 1024, out), std::runtime_error);
  EXPECT_THROW(store.read_chunk(2000, 100, out.row(0)), std::runtime_error);
  Tensor ok({1024, 15});
  store.read_chunk(0, 1024, ok);  // before the cut: still readable
}

TEST_P(StoreReadTest, PooledChunkReadsEqualSerialReadsAndCountTheSameCalls) {
  ASSERT_TRUE(g_pool_pinned);
  const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 2500},
                               {0, 1024}, {1024, 2048}, {2048, 2500},
                               {7, 8}}) {
    SCOPED_TRACE(std::to_string(lo) + ".." + std::to_string(hi));
    // Different fills, so a slot either path leaves unwritten differs.
    Tensor pooled = Tensor::full({hi - lo, 15}, -1.f);
    Tensor serial = Tensor::full({hi - lo, 15}, -2.f);
    std::uint64_t before = store.preads();
    store.read_chunk(lo, hi - lo, pooled);
    const std::uint64_t pooled_calls = store.preads() - before;
    before = store.preads();
    inside_pool_task([&] { store.read_chunk(lo, hi - lo, serial); });
    EXPECT_EQ(store.preads() - before, pooled_calls);
    expect_same_bytes(pooled, serial);
  }
}

TEST_P(StoreReadTest, TruncatedHopFileThrowsOnTheCallerAndThePoolRunsOn) {
  ASSERT_TRUE(g_pool_pinned);
  // Hop 0 is read by the calling thread's part, hop 2 by a worker's.
  for (const int cut : {0, 2}) {
    SCOPED_TRACE("hop " + std::to_string(cut));
    const auto store = FeatureFileStore::create(dir_, hops_, GetParam());
    std::filesystem::resize_file(
        dir_ + "/hop_" + std::to_string(cut) + ".bin",
        1500 * store.hop_row_bytes() + 3);
    Tensor out({1024, 15});
    EXPECT_THROW(store.read_chunk(1024, 1024, out), std::runtime_error);

    // The next parallel_for covers its range once, on every pool thread.
    std::vector<std::atomic<int>> hits(4096);
    std::mutex mu;
    std::set<std::thread::id> threads;
    io_pool().parallel_for(hits.size(), [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) ++hits[i];
      std::lock_guard<std::mutex> lk(mu);
      threads.insert(std::this_thread::get_id());
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    EXPECT_EQ(threads.size(), io_pool().size());

    Tensor pooled = Tensor::full({1024, 15}, -1.f);
    Tensor serial = Tensor::full({1024, 15}, -2.f);
    store.read_chunk(0, 1024, pooled);  // before the cut
    inside_pool_task([&] { store.read_chunk(0, 1024, serial); });
    expect_same_bytes(pooled, serial);
  }
}

// create() over a row selection against create() over the gathered rows:
// the same files, byte for byte.  8,000 rows of 64 features put a whole
// hop past several int8 encode buffers (68-byte records) and a scattered
// selection past several IOV_MAX pwritev batches, each with a short tail.
class StoreSelectTest : public ::testing::TestWithParam<RowCodec> {
 protected:
  void SetUp() override {
    Rng rng(21);
    for (int h = 0; h < 3; ++h) hops_.push_back(Tensor::normal({8000, 64}, rng));
    dir_ = ::testing::TempDir() + "/ppgnn_store_select_" +
           codec_name(GetParam());
  }
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  // Hop files of two stores in dirs a and b are equal, byte for byte.
  static void expect_same_files(const std::string& a, const std::string& b,
                                std::size_t bytes_per_hop) {
    for (int h = 0; h < 3; ++h) {
      const std::string name = "/hop_" + std::to_string(h) + ".bin";
      const std::string got = slurp(a + name);
      ASSERT_EQ(got.size(), bytes_per_hop) << name;
      EXPECT_TRUE(got == slurp(b + name)) << name;
    }
  }
  void expect_same_files_as_gathered(const std::vector<std::int64_t>& rows) {
    const FeatureFileStore got =
        FeatureFileStore::create(dir_ + "_sel", hops_, GetParam(), &rows);
    std::vector<Tensor> gathered;
    for (const Tensor& hop : hops_) gathered.push_back(gather_rows(hop, rows));
    (void)FeatureFileStore::create(dir_ + "_gat", gathered, GetParam());
    EXPECT_EQ(got.num_rows(), rows.size());
    expect_same_files(dir_ + "_sel", dir_ + "_gat",
                      rows.size() * got.hop_row_bytes());
  }
  std::vector<Tensor> hops_;
  std::string dir_;
};

TEST_P(StoreSelectTest, SelectedRowsWriteTheGatheredFiles) {
  ASSERT_GT(8000 * (sizeof(float) + 64),
            2 * FeatureFileStore::kEncodeBufferBytes);
  Rng rng(22);
  std::vector<std::int64_t> all(8000);
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::int64_t> scattered = all;
  rng.shuffle(scattered);
  scattered.resize(5000);  // ~5,000 runs: 4 full IOV_MAX batches + a tail
  std::vector<std::int64_t> contiguous(all.begin() + 1000,
                                       all.begin() + 7001);
  // Runs of 1 to 40 rows in shuffled chunk order, plus a repeated row.
  std::vector<std::int64_t> chunks = ChunkReshuffler(40).epoch_order(8000, rng);
  chunks.resize(3333);
  chunks.push_back(chunks.back());
  for (const auto* rows : {&all, &scattered, &contiguous, &chunks}) {
    SCOPED_TRACE(rows->size());
    expect_same_files_as_gathered(*rows);
  }
  expect_same_files_as_gathered({7999});
}

TEST_P(StoreSelectTest, NoSelectionWritesEveryRow) {
  std::vector<std::int64_t> all(8000);
  std::iota(all.begin(), all.end(), 0);
  const FeatureFileStore store =
      FeatureFileStore::create(dir_ + "_all", hops_, GetParam());
  (void)FeatureFileStore::create(dir_ + "_ids", hops_, GetParam(), &all);
  EXPECT_EQ(store.num_rows(), 8000u);
  expect_same_files(dir_ + "_all", dir_ + "_ids",
                    8000 * store.hop_row_bytes());
}

std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_P(StoreSelectTest, FailedHopWriteThrowsAfterEveryPartFinished) {
  ASSERT_TRUE(g_pool_pinned);
  // A directory where hop 1's file goes: its open for write fails.
  const std::string dir = dir_ + "_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/hop_1.bin");
  const bool count_fds = std::filesystem::exists("/proc/self/fd");
  const std::size_t fds_before = count_fds ? open_fds() : 0;
  EXPECT_THROW((void)FeatureFileStore::create(dir, hops_, GetParam()),
               std::system_error);
  if (count_fds) {
    EXPECT_EQ(open_fds(), fds_before);
  }
  const std::size_t rec =
      GetParam() == RowCodec::kInt8 ? sizeof(float) + 64 : 64 * sizeof(float);
  EXPECT_EQ(std::filesystem::file_size(dir + "/hop_0.bin"), 8000 * rec);
  // Hop 2 is a worker's part: the exception reached the caller only after
  // it had written its whole file.
  if (io_pool().size() > 1) {
    EXPECT_EQ(std::filesystem::file_size(dir + "/hop_2.bin"), 8000 * rec);
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, StoreSelectTest,
                         ::testing::Values(RowCodec::kFp32, RowCodec::kInt8),
                         [](const auto& info) {
                           return std::string(codec_name(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(Codecs, StoreReadTest,
                         ::testing::Values(RowCodec::kFp32, RowCodec::kInt8),
                         [](const auto& info) {
                           return std::string(codec_name(info.param));
                         });

TEST_F(StorageTest, CreateValidatesShapes) {
  hops_.push_back(Tensor({50, 7}));  // wrong dim
  EXPECT_THROW(FeatureFileStore::create(dir_, hops_), std::invalid_argument);
  EXPECT_THROW(FeatureFileStore::create(dir_, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(Placement, SmallInputGoesToGpu) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{3} << 30;   // 3 GiB (papers100M-like)
  req.model_peak_bytes = std::size_t{2} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kGpu);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, MediumInputGoesToHostWithChunks) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{160} << 30;  // 160 GiB (igb-medium R=3)
  req.model_peak_bytes = std::size_t{4} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kHost);
  EXPECT_TRUE(d.chunk_reshuffle);
  EXPECT_EQ(d.loader, sim::LoaderKind::kChunkPipeline);
}

TEST(Placement, PinningBudgetFallsBackToRR) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{300} << 30;  // fits 380 GB but > 50% pinnable
  req.model_peak_bytes = std::size_t{4} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kHost);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, UserForcesRR) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{100} << 30;
  req.model_peak_bytes = std::size_t{4} << 30;
  req.force_sgd_rr = true;
  const auto d = decide_placement(req, m);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, HugeInputGoesToStorage) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{1600} << 30;  // igb-large after expansion
  req.model_peak_bytes = std::size_t{8} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kStorage);
  EXPECT_TRUE(d.chunk_reshuffle);
}

TEST(Placement, MultiGpuExpandsGpuBudget) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{100} << 30;  // > 1 GPU (48G), < 4 GPUs
  req.model_peak_bytes = std::size_t{2} << 30;
  req.num_gpus = 4;
  const auto d4 = decide_placement(req, m);
  EXPECT_EQ(d4.placement, sim::DataPlacement::kGpu);
  req.num_gpus = 1;
  const auto d1 = decide_placement(req, m);
  EXPECT_EQ(d1.placement, sim::DataPlacement::kHost);
}

}  // namespace
}  // namespace ppgnn::loader
