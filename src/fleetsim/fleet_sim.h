// Discrete-event fleet simulator: replays an arrival trace (serve/trace.h)
// against the REAL serving policy objects in simulated time.
//
// What is real and what is modeled:
//
//   real (the production code itself)          modeled
//   ------------------------------------       -----------------------
//   AutoscalePolicy::on_tick + its guards      batch service time
//   ServerStats windowed gauges (SimClock)       (fleetsim/service_model.h)
//     and their fleet_signals() pooling        cache hit rate (CacheModel)
//   route_envelope: HashRing / Router /        spawn build+warm latency
//     split_by_ring placement                  core timesharing
//   AdmissionQueue, one per replica: the
//     MicroBatcher's verdicts, DWRR
//     sub-queues, expiry sweep, least-slack
//     eviction and batch pop
//   tenant front gate: apply_contract and
//     the TenantAdmission token buckets
//
// The simulator is single-threaded: a binary heap of timer events
// (dispatch-window closes, batch completions, controller ticks, spawn
// completions) interleaved with trace arrivals, all stamped on one
// SimClock that the policy objects read.  No dispatcher threads run —
// dispatch timing is the event loop's job — which is what lets hours of
// trace replay in seconds and makes every run bit-reproducible: identical
// config + trace => identical spawn/retire sequence, admission counts and
// latency histograms, independent of host load or ctest parallelism.
//
// Fidelity boundaries worth knowing when reading results against a real
// run: compute is modeled at batch granularity, so intra-batch effects
// (cache line reuse, allocator noise) fold into the calibrated service
// model; and a shed_budget of zero degrades to capacity-bounded FIFO admission
// because blocking backpressure has no open-loop meaning in a replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleetsim/service_model.h"
#include "serve/admission_queue.h"
#include "serve/autoscale.h"
#include "serve/router.h"
#include "serve/server_stats.h"
#include "serve/trace.h"
#include "tenancy/tenant.h"

namespace ppgnn::fleetsim {

struct SimFleetConfig {
  std::size_t initial_replicas = 1;
  serve::RoutingPolicy policy = serve::RoutingPolicy::kRoundRobin;
  // Batching/admission knobs; the clock and tenants fields are ignored
  // (the simulator injects its own SimClock, and `tenants` below).
  serve::MicroBatchConfig batch;
  serve::AutoscaleConfig autoscale;
  // Span of each replica's windowed gauges (FleetConfig.stats_window).
  std::chrono::milliseconds stats_window{500};
  // Modeled build + pre-warm latency of one spawn (scale_up blocks the
  // controller for this long, exactly like the real FleetManager's
  // synchronous build).
  std::chrono::milliseconds spawn_latency{30};
  // Rows a dynamic spawn starts resident (FleetConfig.warm_keys).
  std::size_t warm_keys = 512;
  // Fill fraction of the INITIAL replicas' caches (0 = cold start, which
  // is what a fresh bench run measures; 1 = steady state, what a
  // long-running deployment looks like).
  double initial_fill = 0.0;
  // Per-replica cache model (capacity 0 = uncached).
  CacheModelConfig cache;
  // Timeline sampling period; 0 disables sampling.
  std::chrono::milliseconds timeline_every{1000};
  // Tenant contracts: when set, arrivals pass the SAME TenantAdmission
  // token buckets (driven by the sim clock) and DWRR batch composition the
  // live fleet front runs, so a capacity plan can answer "does tenant B's
  // p99 survive tenant A blasting 10x quota" before anyone deploys.  Must
  // outlive the sim.  Null = pre-tenancy behavior (everything tenant 0,
  // unmetered, weight 1).
  const tenancy::TenantRegistry* tenants = nullptr;
};

struct SimEvent {
  double t_seconds = 0;
  bool spawned = false;
  std::uint64_t generation = 0;
  std::size_t replicas_after = 0;
  std::size_t warmed_keys = 0;
  double first_window_hit_rate = 0;
};

struct SimTimelinePoint {
  double t_seconds = 0;
  std::size_t replicas = 0;
  std::size_t queued = 0;
  std::size_t idle = 0;
};

struct SimResult {
  // Part-level counters (an n-node envelope is n parts), matching the
  // fleet's own accounting.
  std::size_t offered_parts = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t quota_refused = 0;  // refused at the tenant quota gate
  std::size_t shed = 0;  // admitted, then dropped pre-compute
  std::size_t answered = 0;
  std::size_t deadline_missed = 0;
  serve::LatencySummary admitted_latency;  // over answered parts
  double span_seconds = 0;    // first arrival -> last completion
  double answered_rps = 0;
  double shed_rate = 0;       // (rejected + shed) / offered
  std::size_t max_replicas_seen = 0;
  double replica_seconds = 0;
  double idle_replica_seconds = 0;
  double mean_hit_rate = 0;   // dispatched-row weighted
  double mean_batch = 0;
  std::vector<SimEvent> events;          // excludes the initial replicas
  std::vector<SimTimelinePoint> timeline;
  // Per-tenant slices (tenant-id ascending), pooled across all replicas —
  // the same TenantStat shape the live fleet's aggregate_tenants() emits,
  // so sim and measured isolation numbers compare field for field.  Empty
  // when the run saw only tenant 0 with no registry.
  std::vector<serve::TenantStat> tenants;
  double sim_wall_seconds = 0;  // real time the replay took

  // Spawn/retire sequence as one character per event: 'u' / 'd'.  The
  // calibration gate compares this against the measured ramp's sequence.
  std::string event_signature() const;
  std::string to_json() const;
};

class FleetSim {
 public:
  FleetSim(const SimFleetConfig& cfg, const ServiceModel& model);

  // Replays `trace` (arrivals must be time-ordered, as load_trace
  // guarantees) from a fresh fleet.  Each call starts over.
  SimResult run(const std::vector<serve::TraceEvent>& trace);

 private:
  SimFleetConfig cfg_;
  ServiceModel model_;
};

}  // namespace ppgnn::fleetsim
