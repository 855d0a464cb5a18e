#include "tensor/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "tensor/ops.h"

namespace ppgnn {
namespace {

// A 3-thread global pool (caller plus two workers) unless the environment
// already chose a size; set before anything touches global_pool().
const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "3", 0);
  return true;
}();

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t lo, std::size_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::size_t total = 0;
  pool.parallel_for(100, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPool, RepeatedInvocations) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(257, [&](std::size_t lo, std::size_t hi) {
      total += hi - lo;
    });
    ASSERT_EQ(total.load(), 257u);
  }
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  // A task that itself calls parallel_for must not deadlock (it runs the
  // inner loop serially).  Regression test for the prefetcher deadlock.
  std::atomic<std::size_t> inner_total{0};
  global_pool().parallel_for(8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel_for(100, [&](std::size_t a, std::size_t b) {
        inner_total += b - a;
      }, /*grain=*/1);
    }
  });
  EXPECT_EQ(inner_total.load(), 800u);
}

TEST(ThreadPool, ConcurrentCallersFromTwoThreads) {
  // Two threads using the global pool simultaneously (the trainer +
  // prefetcher pattern): both must complete.
  std::atomic<std::size_t> t1{0}, t2{0};
  std::thread other([&] {
    for (int rep = 0; rep < 20; ++rep) {
      parallel_for(5000, [&](std::size_t lo, std::size_t hi) {
        t2 += hi - lo;
      }, 1);
    }
  });
  for (int rep = 0; rep < 20; ++rep) {
    parallel_for(5000, [&](std::size_t lo, std::size_t hi) {
      t1 += hi - lo;
    }, 1);
  }
  other.join();
  EXPECT_EQ(t1.load(), 20u * 5000u);
  EXPECT_EQ(t2.load(), 20u * 5000u);
}

TEST(ParallelForHelper, SmallNRunsSerial) {
  // Below the grain the helper must not touch the pool (observable as the
  // callback receiving the whole range at once).
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  parallel_for(10, [&](std::size_t lo, std::size_t hi) {
    calls.emplace_back(lo, hi);
  }, /*grain=*/100);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, std::size_t{10}));
}

// Distinct threads that ran a part of one global parallel_for.
std::size_t threads_in_parallel_for() {
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(4096, [&](std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lk(mu);
    ids.insert(std::this_thread::get_id());
  }, /*grain=*/1);
  return ids.size();
}

// gather_rows over 4,096 indices with one out of range at `bad`: the
// exception reaches the caller only after every part finished, and the
// pool still splits the next parallel_for across its threads.
void expect_gather_throws_and_pool_recovers(std::size_t bad) {
  ASSERT_TRUE(g_pool_pinned);
  if (global_pool().size() < 2) GTEST_SKIP() << "needs a pool with workers";
  const Tensor src = Tensor::full({64, 8}, 1.f);
  std::vector<std::int64_t> idx(4096);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int64_t>(i % 64);
  }
  idx[bad] = 64;
  Tensor out({idx.size(), 8});
  EXPECT_THROW(gather_rows(src, idx, out), std::out_of_range);
  EXPECT_GT(threads_in_parallel_for(), 1u);
  idx[bad] = 3;
  gather_rows(src, idx, out);
  EXPECT_EQ(out.at(bad, 7), 1.f);
}

TEST(ThreadPool, ExceptionInCallerPartIsRethrownAfterWorkersFinish) {
  expect_gather_throws_and_pool_recovers(0);  // part 0 runs on the caller
}

TEST(ThreadPool, ExceptionInWorkerPartIsRethrownOnCaller) {
  expect_gather_throws_and_pool_recovers(4095);  // the last part: a worker
}

TEST(ThreadPool, FirstOfSeveralExceptionsIsRethrown) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(4, [&](std::size_t lo, std::size_t) {
    ++finished;
    throw std::runtime_error("part " + std::to_string(lo));
  }), std::runtime_error);
  EXPECT_EQ(finished.load(), 4);  // every part ran before the rethrow
  std::atomic<std::size_t> total{0};
  pool.parallel_for(1000, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace ppgnn
