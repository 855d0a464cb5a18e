// Shared pieces of the repo benchmark: the metric record (the benchmark's
// own sink — the library may print to stdout/stderr, the record never
// shares a stream with it), the span tracer, and small statistics and
// process helpers.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}
template <typename T>
std::vector<double> as_doubles(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

// Peak (VmHWM) and current (VmRSS) resident memory of a process in MiB;
// pid 0 = this process.  0 when the process is gone.
double peak_rss_mb(pid_t pid = 0);
double rss_mb(pid_t pid = 0);

// Workload sizes.  kFull is what BENCHMARK.json measures; kSmoke is the
// reduced-size variant the benchmark's own tests run.
struct Scale {
  bool smoke = false;
  std::size_t serve_nodes = 100000;
  std::size_t train_nodes = 100000;
  std::size_t train_feat_dim = 256;
  std::size_t setup_rounds_serve = 9;
  std::size_t setup_rounds_train = 7;
  double warmup_seconds = 2.0;
};
Scale full_scale();
Scale smoke_scale();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;    // record file (JSON)
  std::string spans;  // span file (CSV), trace runs only
  std::string dir = "perfbench_run";  // stores, checkpoints, sockets
  Scale scale;
};

// One metric as it lands in the record.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

// The run's record.  Failures are counted per phase and cause; a broken
// correctness check marks the whole run incorrect (it never just lowers a
// metric).
class Record {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  void attempt(const std::string& phase, std::size_t n = 1);
  void failure(const std::string& phase, const std::string& cause,
               std::size_t n = 1);
  void incorrect(const std::string& why);

  bool correct() const { return problems_.empty(); }
  std::size_t attempted() const;
  std::size_t failed() const;
  std::size_t failed_by_cause(const std::string& cause) const;

  // Writes the JSON record; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::size_t> attempted_;                // phase
  std::map<std::pair<std::string, std::string>, std::size_t> failed_;  // phase,cause
  std::vector<std::string> problems_;
};

// Host and build fingerprint: nproc, active ISA, dispatched int8 GEMM arm,
// build type, compiler, PPGNN_NUM_THREADS and the workload seed.
void fingerprint(Record& rec, const Args& args);

// ---------------------------------------------------------------------------
// Tracing.  A span has a name, a start, an end and a parent; spans of one
// envelope (or one training epoch) share a trace id.  Each recording thread
// owns a buffer, so recording takes no lock; buffers are merged and written
// out after the run.

struct Span {
  std::uint32_t name = 0;    // index into Tracer::names
  std::uint64_t trace = 0;   // envelope / epoch id
  std::uint64_t id = 0;      // unique, nonzero
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  class Buffer {
   public:
    // Records a finished span and returns its id (for children).
    std::uint64_t add(std::uint32_t name, std::uint64_t trace,
                      std::uint64_t parent, Clock::time_point start,
                      Clock::time_point end);
    // For a span whose children finish first: reserve() hands out its id,
    // finish() fills it in.
    std::uint64_t reserve();
    void finish(std::uint64_t id, std::uint32_t name, std::uint64_t trace,
                std::uint64_t parent, Clock::time_point start,
                Clock::time_point end);

   private:
    friend class Tracer;
    Buffer(const Tracer* owner, std::uint64_t tag)
        : owner_(owner), tag_(tag) {}
    const Tracer* owner_;
    std::uint64_t tag_;
    std::vector<Span> spans_;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t name_id(const std::string& name);  // setup time only
  Buffer& new_buffer();                            // setup time only

  // Per-name self time: span duration minus the part of it its children
  // cover (their union, clipped to the span — children on other threads
  // may overlap each other).  Keyed by span name.
  struct SelfTime {
    std::size_t count = 0;
    double total_us = 0;
    double mean_us() const { return count ? total_us / count : 0; }
  };
  std::map<std::string, SelfTime> self_times() const;
  // Per-trace sums of self time for one name (e.g. per-epoch totals).
  std::map<std::uint64_t, double> self_us_by_trace(
      const std::string& name) const;
  std::size_t size() const;
  void write_csv(const std::string& path) const;

 private:
  std::vector<double> self_us_all() const;  // parallel to merged()
  std::vector<Span> merged() const;

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
