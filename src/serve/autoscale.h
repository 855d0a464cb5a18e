// Deterministic, signal-driven replica autoscaling policy.
//
// The admission layer already measures overload precisely: the windowed
// shed rate says how much offered work the fleet is refusing, and the
// windowed queue delay says how close admitted work is sailing to its
// budget.  AutoscalePolicy turns those gauges into spawn/retire decisions
// — the deterministic cousin of learned cluster schedulers like DL2: no
// model, just hysteresis, because a serving tier that oscillates (spawn,
// flush caches, retire, repeat) is worse than one that is briefly
// under-provisioned.
//
// The hysteresis has four guards, each killing one oscillation mode:
//
//  * sustain   — the shed rate must exceed the hi-threshold *continuously*
//                for `sustain` before a spawn: a single hot micro-burst
//                that the queue absorbs anyway must not buy a replica.
//  * idle_window — the fleet queues must be empty for `scale_down_idle` of
//                the ticks across `idle_window` before a retire: a gap
//                between request waves must not tear a replica down.
//  * cooldown  — after any action, no further action for `cooldown`: a
//                freshly spawned replica needs a window of traffic before
//                its effect on the shed rate is measurable, and reacting
//                before that means reacting to stale signals.
//  * bounds    — never below min_replicas (capacity floor for the next
//                wave) or above max_replicas (the machine's core budget —
//                replicas beyond it just timeshare).
//
// The policy is a pure state machine over (signals, now): time is
// injected, so tests replay a staged trace and assert the exact action
// sequence (test_autoscale does: exactly one spawn then one retire).
// The FleetManager's controller thread owns the wall-clock loop.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

namespace ppgnn::serve {

class ServerStats;

struct AutoscaleConfig {
  bool enabled = false;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  // Spawn when the windowed shed rate stays above this...
  double scale_up_shed = 0.10;
  // ...continuously for this long.
  std::chrono::milliseconds sustain{400};
  // Retire when at least this fraction of ticks across idle_window saw
  // empty fleet queues and no shedding...
  double scale_down_idle = 0.90;
  std::chrono::milliseconds idle_window{1000};
  // ...and no action happened within the last cooldown.
  std::chrono::milliseconds cooldown{1500};
  // Controller cadence (also the signal sampling period).
  std::chrono::milliseconds tick{50};
};

// One tick's fleet-level signal sample, pooled across replicas by
// fleet_signals() (sum the window counters, then compute rates).
struct FleetSignals {
  double shed_rate = 0;            // windowed: (rejected+shed)/offered
  double mean_queue_delay_us = 0;  // windowed, dispatch-time
  // Instantaneous fleet total of QUEUED work, in-service batches excluded
  // — the idle predicate keys on work waiting behind current batches.
  std::size_t queue_depth = 0;
  // One dispatch round's worth of queue: replicas * max_batch_size.  A
  // tick counts as idle when nothing was shed in the window AND
  // queue_depth <= batch_capacity — the backlog clears within a single
  // round, i.e. "the queues run empty" at batch granularity.  (A strictly
  // empty queue is the wrong test: micro-batching *deliberately*
  // accumulates arrivals for max_delay, so even a half-loaded fleet's
  // queue is non-empty most of the time.)
  std::size_t batch_capacity = 1;
  std::size_t replicas = 0;        // active replica count
};

// The signal sample of the active replicas' recorders as of `now`, for
// both the live FleetManager and fleetsim (only `queue_depth` differs).
FleetSignals fleet_signals(const std::vector<const ServerStats*>& replicas,
                           std::chrono::steady_clock::time_point now,
                           std::size_t max_batch_size,
                           std::size_t queue_depth);

enum class ScaleAction { kNone, kUp, kDown };
const char* scale_action_name(ScaleAction a);

class AutoscalePolicy {
 public:
  explicit AutoscalePolicy(const AutoscaleConfig& cfg);

  // Feed one signal sample; returns the action the fleet should take now.
  // `now` must be monotonically non-decreasing across calls.
  ScaleAction on_tick(const FleetSignals& s,
                      std::chrono::steady_clock::time_point now);

  const AutoscaleConfig& config() const { return cfg_; }

 private:
  AutoscaleConfig cfg_;
  // Shed-rate hysteresis: when the rate first crossed the hi threshold
  // (and stayed there since).
  bool over_ = false;
  std::chrono::steady_clock::time_point over_since_{};
  // Idle tracking: (tick time, was the fleet idle at that tick), pruned to
  // the idle window; coverage_start_ marks when tracking last restarted,
  // so "evidence spans the whole window" is judged against real elapsed
  // time rather than tick spacing (ticks jitter on loaded machines).
  std::deque<std::pair<std::chrono::steady_clock::time_point, bool>> idle_;
  bool covering_ = false;
  std::chrono::steady_clock::time_point coverage_start_{};
  bool acted_ = false;
  std::chrono::steady_clock::time_point last_action_{};
};

}  // namespace ppgnn::serve
