// Minimal thread pool with a blocking parallel_for.
//
// The pool is created once per process, on first use (see global_pool()),
// and shared by the kernels whose loops are long enough to pay for a
// fork-join: large fp32 GEMMs, SpMM, gather, the MP-GNN layers.  The
// feature store's hop-file reads and writes run on a second pool of their
// own, io_pool().  The serving path (int8 GEMM, bias add, concat) runs on
// its caller's thread, so a replica process never builds the pool unless
// its fp32 GEMM runs on the scalar oracle.  Work is partitioned into contiguous index ranges,
// one per worker, which is the right granularity for the regular,
// bandwidth-bound loops in this library.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppgnn {

class ThreadPool {
 public:
  // n_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }  // workers + caller

  // Runs fn(begin, end) over disjoint subranges of [0, n) on all threads and
  // returns when every subrange is done.  fn must be safe to call
  // concurrently on disjoint ranges.
  //
  // Reentrancy: the pool handles one parallel_for at a time.  A call made
  // while another is in flight (e.g. from the prefetcher thread while the
  // trainer runs a GEMM) executes fn(0, n) serially on the calling thread
  // instead of deadlocking on the shared workers.
  //
  // Exceptions: if fn throws in any part, the call still waits for every
  // part to finish, then rethrows the first exception caught on the
  // calling thread; the pool stays usable.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t worker_id);
  // Runs one part, recording an exception instead of letting it escape.
  void run_part(const std::function<void(std::size_t, std::size_t)>& fn,
                std::size_t begin, std::size_t end);

  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  // held for the duration of one parallel_for
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;        // one slot per worker
  std::size_t epoch_ = 0;          // incremented per parallel_for call
  std::size_t pending_ = 0;        // tasks not yet finished this epoch
  std::exception_ptr error_;       // first exception this epoch
  bool stop_ = false;
};

// Process-wide pool; lazily constructed, sized from hardware concurrency or
// the PPGNN_NUM_THREADS environment variable.
ThreadPool& global_pool();

// Process-wide pool for storage streams: FeatureFileStore's hop-file reads
// and writes (loader/storage.h), one part per range of hop files.  Built
// on first use and sized like global_pool(), but apart from it, so that a
// loader thread's read never holds the pool a training step forks on.
// (Sharing one pool, a trainer on the scalar GEMM oracle, whose SGC step
// splits across the pool, ran that step serially whenever the prefetch
// thread's read held it: train_sgc_storage's epoch read 1.6x slower.)
ThreadPool& io_pool();

// Convenience wrapper over global_pool().parallel_for.  Falls back to a
// serial loop for small n to avoid synchronization overhead.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 1024);

}  // namespace ppgnn
