#include "tensor/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace ppgnn {

namespace {
// True while the current thread is inside a parallel_for (as driver or as
// worker) — nested calls must not touch the pool again.
thread_local bool t_in_parallel_region = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t n_workers = n_threads - 1;  // caller participates
  tasks_.resize(n_workers);
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::size_t seen_epoch = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      task = tasks_[worker_id];
    }
    if (task.fn != nullptr && task.begin < task.end) {
      t_in_parallel_region = true;
      run_part(*task.fn, task.begin, task.end);
      t_in_parallel_region = false;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::run_part(
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t begin, std::size_t end) {
  try {
    fn(begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Only one parallel_for may drive the workers; nested calls from inside a
  // task and concurrent callers from other threads run serially instead.
  if (t_in_parallel_region) {
    fn(0, n);
    return;
  }
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    fn(0, n);
    return;
  }
  t_in_parallel_region = true;
  const std::size_t n_parts = std::min(n, workers_.size() + 1);
  const std::size_t chunk = (n + n_parts - 1) / n_parts;
  // Caller runs part 0; workers run parts 1..n_parts-1.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::size_t part = w + 1;
      Task t;
      if (part < n_parts) {
        t.fn = &fn;
        t.begin = std::min(n, part * chunk);
        t.end = std::min(n, (part + 1) * chunk);
      }
      tasks_[w] = t;
    }
    pending_ = workers_.size();
    ++epoch_;
  }
  cv_work_.notify_all();
  run_part(fn, 0, std::min(n, chunk));
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  t_in_parallel_region = false;
  if (error) std::rethrow_exception(error);
}

namespace {
std::size_t configured_threads() {
  if (const char* env = std::getenv("PPGNN_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}
}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool(configured_threads());
  return pool;
}

ThreadPool& io_pool() {
  static ThreadPool pool(configured_threads());
  return pool;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain) {
  if (n < grain || global_pool().size() == 1) {
    if (n > 0) fn(0, n);
    return;
  }
  global_pool().parallel_for(n, fn);
}

}  // namespace ppgnn
