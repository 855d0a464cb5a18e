// Latency / throughput accounting for the online serving subsystem.
//
// Serving is judged on tail latency under concurrent load, not epoch time
// (the training-side metric everywhere else in this repo).  ServerStats is
// the one sink every serving component reports into: per-request latencies
// (submit -> response) and completion timestamps, summarized as p50/p95/p99,
// mean, max and sustained throughput.  The summary prints both as a
// bench/common.h-style table row and as a single JSON object line, which is
// the machine-readable shape bench_serving_latency emits.
//
// With admission control (MicroBatcher's shed budget) the latency summary
// alone lies by omission — a server can hold a beautiful p99 by refusing
// every hard request — so ServerStats also counts the admission verdicts:
// admitted, rejected at the door, and shed from the queue after admission.
//
// Two aggregation regimes share this class, and both keep latencies in
// LatencyHistograms (latency_histogram.h), so a recorder's memory does not
// grow with the number of requests it has seen:
//
//  * Cumulative — lifetime counters and one latency histogram per tenant,
//    what the bench tables report.  Each replica owns one ServerStats;
//    merge() / merge_once() add histograms so fleet-level percentiles come
//    from the union of latencies, not from averaging per-replica
//    percentiles (which is wrong).  With *dynamic* membership
//    (FleetManager), a retired replica's recorder outlives the replica and
//    a same-slot successor records into a fresh one — so fleet aggregation
//    is keyed by generation id: merge_once() folds a given generation
//    exactly once per pooled recorder no matter how many membership lists
//    mention it.
//
//  * Windowed — the autoscale signals.  Admission verdicts, queue delays
//    and completions additionally land in a ring of 16 buckets over a
//    configurable span (one histogram per tenant per bucket), so window()
//    reports the *recent* shed rate, mean queue delay and admitted-latency
//    percentiles — what the AutoscalePolicy reacts to and serve_cli's
//    per-window status line prints.  Each event costs O(1) at any rate.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/clock.h"
#include "serve/latency_histogram.h"

namespace ppgnn::serve {

struct LatencySummary {
  std::size_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double max_us = 0;
  // Span from the first to the last completion and the sustained rate over
  // that span.
  double wall_seconds = 0;
  double throughput_rps = 0;

  // One JSON object, e.g. {"count":1000,"p50_us":12.0,...}.
  std::string to_json() const;
};

// Percentile over an unsorted sample (nearest-rank), p in [0, 100].
double percentile(std::vector<double> sample, double p);

// Admission-control outcomes.  "Rejected" is refused at submit time;
// "shed" was admitted but dropped from the queue later to protect the
// delay budget.  Both surface to the client as a retriable condition.
struct AdmissionCounters {
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;

  std::size_t offered() const { return admitted + rejected; }
  // Fraction of offered requests refused at the door.
  double reject_rate() const {
    return offered() ? static_cast<double>(rejected) /
                           static_cast<double>(offered())
                     : 0.0;
  }
  // Fraction of offered requests that never got an answer (door + queue).
  double shed_rate() const {
    return offered() ? static_cast<double>(rejected + shed) /
                           static_cast<double>(offered())
                     : 0.0;
  }
  // {"admitted":...,"rejected":...,"shed":...,"shed_rate":...}
  std::string to_json() const;
};

// Where answered requests spent their time, stage by stage, plus the
// honest shed column: a request shed from the queue never computed, but
// its admission wait was real latency its client paid — so shed parts
// record that wait here instead of reporting zeros (the
// serve-api-v2 stage-timing contract; pooled by merge()/merge_once()).
struct StageGauges {
  double admission_sum_us = 0;  // dispatched parts: enqueue -> batch close
  double dispatch_sum_us = 0;   // batch close -> compute start
  double compute_sum_us = 0;    // gather + forward
  std::size_t dispatched = 0;
  double shed_wait_sum_us = 0;  // shed parts: enqueue -> shed
  std::size_t shed_waits = 0;

  double mean_admission_us() const {
    return dispatched ? admission_sum_us / static_cast<double>(dispatched) : 0;
  }
  double mean_dispatch_us() const {
    return dispatched ? dispatch_sum_us / static_cast<double>(dispatched) : 0;
  }
  double mean_compute_us() const {
    return dispatched ? compute_sum_us / static_cast<double>(dispatched) : 0;
  }
  double mean_shed_wait_us() const {
    return shed_waits ? shed_wait_sum_us / static_cast<double>(shed_waits) : 0;
  }
  // {"admission_us":...,"dispatch_us":...,"compute_us":...,
  //  "shed_wait_us":...,"shed_waits":...}
  std::string to_json() const;
};

// One tenant's slice of a recorder: the multi-tenant observability row
// (src/tenancy/).  Counters are cumulative; the latency percentiles come
// in two flavors — cumulative over every admitted completion (what the
// bench isolation gate reads after a fleet merge) and windowed over the
// recorder's sliding window (what the live status line prints).
// `quota_refused` counts token-bucket refusals and is deliberately NOT
// part of AdmissionCounters: quota refusals are the tenant's contract
// working as intended, and must never inflate shed_rate (which would
// spook the autoscaler into scaling for traffic the fleet will not serve).
struct TenantStat {
  std::uint32_t tenant = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t quota_refused = 0;
  std::size_t samples = 0;  // cumulative completions
  double p50_us = 0;        // cumulative percentiles over `samples`
  double p99_us = 0;
  std::size_t win_samples = 0;  // completions inside the sliding window
  double win_p50_us = 0;
  double win_p99_us = 0;

  // {"tenant":0,"admitted":...,"quota_refused":...,"p99_us":...,...}
  std::string to_json() const;
};

// Point-in-time view of the sliding window: the autoscale signal set for
// one replica (pool counters across replicas before computing fleet
// rates).
struct WindowStats {
  AdmissionCounters admission;       // verdicts within the window
  std::size_t deadline_missed = 0;   // misses within the window
  double mean_queue_delay_us = 0;    // dispatch-time queue delay
  std::size_t queue_delay_samples = 0;
  LatencySummary latency;            // completions within the window
  double shed_rate() const { return admission.shed_rate(); }
};

// Thread-safe recorder shared by client threads and the dispatcher.
class ServerStats {
 public:
  // `window` spans the sliding-window gauges (autoscale signals); the
  // cumulative counters and latency histograms are unaffected by it.
  // `clock` stamps every recorded event and defaults to the real steady
  // clock; under a SimClock the windowed gauges advance in sim time, so
  // policy code reading them cannot diverge from the event loop (the
  // clock-injection contract in serve/clock.h).
  explicit ServerStats(
      std::chrono::milliseconds window = std::chrono::milliseconds(1000),
      const Clock* clock = nullptr);

  // Records one completed request's latency in microseconds, billed to
  // `tenant` (0 — the default tenant — if the caller doesn't say).
  void record(double latency_us, std::uint32_t tenant = 0);
  // Records one dispatched micro-batch of the given size.
  void record_batch(std::size_t batch_size);
  // Records one request's queue delay (enqueue -> dispatch), the live
  // overload signal the autoscaler watches.  Windowed only.
  void record_queue_delay(double delay_us);
  // Admission verdicts (see AdmissionCounters).
  void record_admitted(std::uint32_t tenant = 0);
  void record_rejected(std::uint32_t tenant = 0);
  void record_shed(std::uint32_t tenant = 0);
  // `n` requests refused by the tenant's token bucket (kQuotaExceeded).
  // Tracked per tenant and as a cumulative total, OUTSIDE AdmissionCounters
  // so shed_rate/reject_rate — the autoscale signals — stay quota-blind.
  void record_quota_refused(std::uint32_t tenant, std::size_t n = 1);
  // One request missed its explicit deadline — shed pre-compute because it
  // was already blown, or answered after it.  Cumulative + windowed.
  void record_deadline_miss();
  // Per-stage timings of one dispatched part (serve_api.h StageTimings).
  void record_stages(double admission_us, double dispatch_us,
                     double compute_us);
  // Admission wait of one part shed before dispatch — recorded so the
  // shed-latency column reports the wait clients actually paid, not zero.
  void record_shed_wait(double admission_us);

  LatencySummary summary() const;
  AdmissionCounters admission() const;
  StageGauges stages() const;
  std::size_t deadline_missed() const;
  std::size_t quota_refused_total() const;
  // Per-tenant rows, tenant id ascending.  Windowed percentiles are
  // evaluated at `now` (injected clock for the no-arg overload).  Only
  // tenants with any recorded activity appear.
  std::vector<TenantStat> tenant_stats() const {
    return tenant_stats(clock_->now());
  }
  std::vector<TenantStat> tenant_stats(
      std::chrono::steady_clock::time_point now) const;
  // The sliding window as of `now` (events older than the window are
  // excluded; bucket granularity is window/16).  The no-argument overload
  // reads the injected clock — never the global steady clock — so a
  // sim-clocked recorder's window is evaluated at sim time.
  WindowStats window() const { return window(clock_->now()); }
  WindowStats window(std::chrono::steady_clock::time_point now) const;
  // Several recorders' windows (a fleet's replicas) pooled as of `now`:
  // counters add, the queue delay re-weights each recorder's mean by its
  // sample count, and percentiles read the union of the windowed
  // histograms.  fleet_signals() (autoscale.h) reads it.
  static WindowStats pooled_window(
      const std::vector<const ServerStats*>& recorders,
      std::chrono::steady_clock::time_point now);
  std::size_t batches() const;
  double mean_batch_size() const;

  // Pools `other` into this recorder: latency histograms, batch and
  // admission counters, and the completion-time span (min first / max
  // last).  The sliding window is NOT pooled — windows are per-replica
  // signals; pooled_window() pools them across recorders instead.
  void merge(const ServerStats& other);
  // Generation-keyed merge for dynamic fleets: folds `other` only if
  // `generation` has not been merged into *this* recorder before, and
  // returns whether it was.  A FleetManager aggregating over active +
  // retired membership lists may encounter the same replica twice (e.g. a
  // handle mid-retirement, or a retired replica and its same-slot
  // successor walked through two bookkeeping paths); keying by the
  // replica's never-reused generation id makes aggregation idempotent.
  bool merge_once(const ServerStats& other, std::uint64_t generation);

 private:
  static constexpr std::size_t kBuckets = 16;

  struct Bucket {
    std::chrono::steady_clock::time_point start{};
    AdmissionCounters admission;
    std::size_t deadline_missed = 0;
    double queue_delay_sum_us = 0;
    std::size_t queue_delay_count = 0;
  };

  // One tenant's slice.  window[i] holds its completions in buckets_[i]'s
  // period (a rotating bucket clears its slot in every tenant).
  struct TenantSlice {
    std::size_t admitted = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t quota_refused = 0;
    LatencyHistogram latency;
    std::array<LatencyHistogram, kBuckets> window;
  };

  // Rotates the bucket ring so `now` falls in the current bucket (stale
  // buckets restart from zero) and returns its slot.  Caller holds mu_.
  std::size_t current_slot_locked(std::chrono::steady_clock::time_point now);
  // Whether slot `i`'s period lies inside the window ending at `now`.
  bool in_window_locked(std::size_t i,
                        std::chrono::steady_clock::time_point now) const;
  // The window's counters at `now` (latency left empty); its completions
  // are merged into `latency`.  Caller holds mu_.
  WindowStats window_locked(std::chrono::steady_clock::time_point now,
                            LatencyHistogram& latency) const;

  const Clock* clock_;  // never null; defaults to &real_clock()
  mutable std::mutex mu_;
  std::size_t batches_ = 0;
  std::size_t batched_requests_ = 0;
  AdmissionCounters admission_;
  std::size_t deadline_missed_ = 0;
  std::size_t quota_refused_ = 0;
  StageGauges stages_;
  // std::map: tenant_stats() rows come out sorted by tenant id, and merge
  // order can't perturb iteration (deterministic JSON across runs).
  std::map<std::uint32_t, TenantSlice> tenants_;
  // Completion span: min first / max last, inverted until a record.
  std::chrono::steady_clock::time_point first_done_ =
      std::chrono::steady_clock::time_point::max();
  std::chrono::steady_clock::time_point last_done_ =
      std::chrono::steady_clock::time_point::min();

  std::chrono::milliseconds window_;
  std::chrono::steady_clock::duration bucket_len_;
  std::array<Bucket, kBuckets> buckets_{};
  std::unordered_set<std::uint64_t> merged_generations_;
};

}  // namespace ppgnn::serve
