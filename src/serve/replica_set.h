// FleetManager: a lifecycle-managed, autoscaling serving tier.
//
// PR 2's ReplicaSet ran N full pipelines behind one submit() — but N was
// fixed at construction, so the fleet could not absorb the load swings the
// admission layer measures: at 2x saturation it shed most of the excess
// instead of adding capacity, and at idle it burned N dispatcher threads.
// This refactor makes membership dynamic while keeping the hot path as
// lock-free as the fixed fleet was.
//
// Structure:
//
//  * ReplicaHandle — one replica: its InferenceSession, MicroBatcher,
//    ServerStats and routing counter, plus a fleet-unique *generation id*
//    (never reused; the identity stats aggregation and the consistent-hash
//    ring key on) and a lifecycle state:
//
//        Warming ----> Active ----> Draining ----> Retired
//        (built +      (published,  (unpublished;  (drained, joined;
//         cache-warmed  routable)    admitted work  stats folded into
//         off-thread)                 completes,     the fleet history)
//                                     new submits
//                                     re-route)
//
//  * Membership — an immutable snapshot (epoch, active handles, hash
//    ring).  submit() loads the current snapshot via one atomic
//    shared_ptr load, routes against it, and never takes the admin lock:
//    scaling reconfigures the fleet by *publishing a new snapshot*, not by
//    mutating the one in flight.  A submitter racing a retirement may
//    still hit the draining replica's batcher; the batcher bounces it
//    with RejectReason::kDraining and try_submit transparently re-routes
//    against the fresh snapshot (so no request is ever lost to a resize —
//    test_autoscale hammers this with 8 threads).
//
//  * Scale-up — the controller (or a manual scale_up() call) builds a new
//    handle from the FleetBuilder off the submit path: model weights come
//    from the shared checkpoint (int8: the builder's shared quantized
//    block — a spawn costs no weight copies), and before the replica goes
//    Active its private cache is pre-warmed with the hottest rows the new
//    ring assigns to it, exported as encoded bytes from its peers' caches
//    (CachedSource::export_hot_payloads / admit_payloads) — a cache-cold
//    replica under cache_affinity would otherwise answer its whole shard
//    from the store for its first window.
//
//  * Scale-down — the youngest Active replica is marked Draining and
//    unpublished (new epoch), then its batcher drains: everything already
//    admitted completes (kHigh work is never dropped by a resize —
//    test_autoscale proves bit-identical logits), racing submits re-route,
//    and the dispatcher joins before the handle retires.
//
//  * Autoscaling — with FleetConfig::autoscale.enabled, a controller
//    thread samples the fleet's windowed signals (shed rate, queue delay,
//    queue depth — see ServerStats::window) every tick and applies
//    AutoscalePolicy's hysteresis (autoscale.h) between min/max bounds.
//
// Stats survive membership churn: every handle ever created stays in the
// fleet's history, and aggregation folds each *generation* exactly once
// (ServerStats::merge_once), so a retired replica's latencies keep
// counting and a same-slot successor can never double-count them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/autoscale.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/router.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"
#include "tenancy/admission.h"
#include "tenancy/tenant.h"

// The cross-process bridge (src/rpc/remote_replica.h).  Forward-declared:
// the serve layer's compile-time surface stays transport-free, and only
// replica_set.cpp links the rpc types in.  (RpcStats is declared-only too:
// aggregate_rpc_stats() callers include rpc/buffer.h themselves.)
namespace ppgnn::rpc {
class RemoteReplica;
struct RpcStats;
}

namespace ppgnn::serve {

enum class ReplicaState : std::uint8_t {
  kWarming,
  kActive,
  kDraining,
  kRetired
};
const char* replica_state_name(ReplicaState s);

struct FleetConfig {
  RoutingPolicy policy = RoutingPolicy::kRoundRobin;
  // Applied to every replica's MicroBatcher (including shed_budget).
  MicroBatchConfig batch;
  // Serving precision the fleet was built for.  Sessions are prepared by
  // FleetBuilder (which quantizes and shares weights for kInt8); the
  // constructor rejects a fleet whose sessions disagree with this knob, so
  // a config/deployment mismatch fails loudly at build time rather than as
  // a silent accuracy or throughput surprise.
  Precision precision = Precision::kFp32;
  // Signal-driven scale-up/down (requires the FleetBuilder constructor —
  // a fleet built from pre-made sessions has no recipe to spawn more).
  AutoscaleConfig autoscale;
  // Rows to pre-warm into a spawned replica's cache from its peers
  // (0 disables).  Only applies when replicas serve through CachedSource.
  std::size_t warm_keys = 512;
  // Span of the per-replica sliding-window gauges (autoscale signals).
  std::chrono::milliseconds stats_window{500};
  // Time source for event timestamps, windowed gauges and autoscale ticks;
  // null = the real steady clock.  Propagated into every replica's
  // ServerStats and (unless batch.clock is set explicitly) MicroBatcher,
  // so one knob moves the whole fleet's policy-visible time.
  const Clock* clock = nullptr;
  // Tenant contract table (src/tenancy/).  When set, the v2 envelope
  // submit() enforces contracts at the fleet front — priority ceiling
  // clamp, default deadline stamp, token-bucket quota (refusals answer
  // kQuotaExceeded without ever reaching a replica) — and every replica's
  // MicroBatcher composes batches by DWRR weight (propagated via
  // batch.tenants unless the caller set that explicitly).  Null keeps the
  // untenanted behavior.  The registry must outlive the fleet.
  const tenancy::TenantRegistry* tenants = nullptr;
};

// Point-in-time view of one replica, for reporting.
struct ReplicaSnapshot {
  std::uint64_t generation = 0;
  ReplicaState state = ReplicaState::kActive;
  std::size_t routed = 0;       // requests the router sent here
  std::size_t queue_depth = 0;  // admitted, not yet dispatched
  BatchCounters batch;
  AdmissionCounters admission;
  LatencySummary latency;
};

// One membership change, for the replica-count timeline the serving bench
// records and the warm-vs-cold measurement.
struct FleetEvent {
  double t_seconds = 0;  // since fleet construction
  std::uint64_t epoch = 0;
  bool spawned = false;  // false = retired
  std::uint64_t generation = 0;
  std::size_t replicas_after = 0;
  std::size_t warmed_keys = 0;  // spawn events: rows pre-admitted
  // Spawn events: the replica's cache hit rate over its first
  // stats-window of live traffic (cold spawns benchmark the warmup).
  // Negative until measured by the controller.
  double first_window_hit_rate = -1.0;
  // Retire events: hot rows the Draining replica handed to its ring
  // successors before retiring (the inverse of spawn warm-up), and the
  // successors' pooled cache hit rate over the first stats-window after
  // the handoff (negative until measured by the controller).
  std::size_t handoff_keys = 0;
  double successor_first_window_hit_rate = -1.0;
};

// Recipe for one replica living in another process: spawn (or connect to)
// a replica server and return its handle, or null on failure.  `ordinal`
// is the fleet's never-reused generation id — use it for unique socket
// paths / log names.  See rpc::spawn_replica_process.
using RemoteSpawnFn =
    std::function<std::shared_ptr<rpc::RemoteReplica>(std::size_t ordinal)>;

class FleetManager {
 public:
  // Dynamic fleet: `builder` is the recipe for the initial
  // `initial_replicas` sessions and for every later scale-up.
  FleetManager(FleetBuilder builder, std::size_t initial_replicas,
               const FleetConfig& cfg);
  // Fixed fleet over pre-built sessions (no spawn recipe): scale_up() and
  // autoscaling are unavailable, scale_down() still works.  Sessions must
  // be non-null and should hold identical weights unless the caller wants
  // a heterogeneous fleet on purpose.
  FleetManager(std::vector<std::unique_ptr<InferenceSession>> sessions,
               const FleetConfig& cfg);
  // Cross-process fleet: every replica is a separate server process (or a
  // remote endpoint) reached through ppgnn-wire; `spawn` is the recipe for
  // the initial replicas and every later scale-up, so autoscaling works.
  // Same submit()/scale/stats surface, with three remote-specific edges:
  //
  //  * a replica whose transport fails (crash, kill -9, network) is
  //    removed from the membership and its in-flight parts re-route
  //    against the fresh snapshot — possibly recomputed, never lost and
  //    never double-answered;
  //  * scale_down/stop retire a process replica by SIGTERM (the server
  //    drains: admitted work answers, new work bounces kDraining);
  //  * per-replica batch counters live in the server process, so
  //    aggregate_batches()/mean_batch_size() cover local replicas only.
  FleetManager(RemoteSpawnFn spawn, std::size_t initial_replicas,
               const FleetConfig& cfg);
  ~FleetManager();  // stop()

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  // --- Serving API v2 (serve_api.h) --------------------------------------
  // Routes the envelope against the current membership snapshot — under
  // cache_affinity each node is split to its ring home (split_by_ring:
  // ring-consistent sub-batches, so a request spanning shards still hits
  // every shard's warm cache); other policies take one routing decision
  // for the whole envelope — submits the per-replica sub-batches, and
  // delivers ONE merged ServeResponse to `cq` when the envelope's last
  // part resolves.  Admission outcomes never throw: draining bounces
  // re-route transparently against a fresh snapshot, overload sheds the
  // affected parts (status kShed), a blown deadline answers
  // kDeadlineExceeded, and a stopped fleet answers kDraining — every
  // submitted envelope produces exactly one response (test_serve_api
  // hammers this across resize storms and loses zero completions).
  // Throws std::invalid_argument only for an empty envelope.
  void submit(ServeRequest req, CompletionQueue& cq);
  // Blocking convenience over a private queue (tests, simple clients).
  ServeResponse infer_request(ServeRequest req);

  // --- PR-1 future API (thin shims over single-node envelopes) -----------
  // Semantics follow MicroBatcher: with shedding disabled try_submit
  // blocks for space and always accepts; with shedding enabled it returns
  // {accepted = false, reason = kOverload} on overload of the routed
  // replica.  Draining refusals are retried internally against a fresh
  // snapshot and never surface.
  Admission try_submit(std::int64_t node, Priority pri = Priority::kHigh);
  // Throwing form: RejectedError on refusal (shedding enabled only).
  std::future<std::vector<float>> submit(std::int64_t node,
                                         Priority pri = Priority::kHigh);
  std::vector<float> infer_blocking(std::int64_t node);

  // Spawns one replica (Warming -> Active; cache-warmed from peers) and
  // publishes the grown membership.  Returns the new generation id.
  // Throws without a FleetBuilder.  Ignores autoscale bounds — bounds
  // belong to the policy, not the mechanism.
  std::uint64_t scale_up();
  // Retires the youngest Active replica: unpublishes it, drains admitted
  // work to completion, joins its dispatcher.  Returns its generation id.
  // Throws when only one replica remains.
  std::uint64_t scale_down();

  // Stops the controller and every replica's dispatcher after draining
  // admitted work.  Idempotent; submit() after stop() throws.
  void stop();

  std::size_t num_replicas() const;  // Active replicas
  std::uint64_t epoch() const;
  RoutingPolicy policy() const { return router_->policy(); }
  Precision precision() const { return precision_; }
  const FleetConfig& config() const { return cfg_; }

  // The replica the current ring assigns `node` to — the cache_affinity
  // home.  Index into the current membership (matches replica_snapshot).
  std::size_t home_replica(std::int64_t node) const;

  // Snapshot of active replica `i` (membership order).
  ReplicaSnapshot replica_snapshot(std::size_t i) const;
  const InferenceSession& replica_session(std::size_t i) const;
  // Every replica ever, retired included — the full fleet history.
  std::vector<ReplicaSnapshot> fleet_snapshot() const;
  std::vector<FleetEvent> events() const;

  // Fleet-level stats over every generation ever admitted to the fleet
  // (retired replicas keep counting — a resize must not launder history)
  // PLUS the fleet front's quota ledger (quota refusals happen before any
  // replica is chosen, so only the front recorder has them), all read from
  // one pooled recorder: latency percentiles over the merged histograms
  // (merging summaries would be wrong), counters and per-stage means
  // pooled.  Tenant rows are sorted by tenant id, and empty for untenanted
  // fleets that never recorded per-tenant activity.
  LatencySummary aggregate_latency() const {
    return pooled_stats()->summary();
  }
  AdmissionCounters aggregate_admission() const {
    return pooled_stats()->admission();
  }
  StageGauges aggregate_stages() const { return pooled_stats()->stages(); }
  std::size_t aggregate_deadline_missed() const {
    return pooled_stats()->deadline_missed();
  }
  std::vector<TenantStat> aggregate_tenants() const {
    return pooled_stats()->tenant_stats();
  }
  // Envelopes refused by tenant token buckets (kQuotaExceeded), fleet-wide.
  std::size_t quota_refused_total() const;
  // Dispatched batches and their mean size, summed across replicas.
  std::size_t aggregate_batches() const { return pooled_stats()->batches(); }
  double aggregate_mean_batch_size() const;
  // Cross-process transport counters summed over every remote replica ever
  // spawned (rpc/buffer.h; serve_cli --remote-replicas and bench section 7
  // report the derived frames-per-writev / pool-hit-rate / allocs-per-frame
  // ratios).  All-zero for fleets with no remote replicas.
  rpc::RpcStats aggregate_rpc_stats() const;

  // Windowed autoscale signals, pooled across active replicas (what the
  // controller feeds the policy; exposed for status lines and tests).
  FleetSignals signals() const;
  // Pooled window counters + admitted-latency percentiles across active
  // replicas — serve_cli's per-window status line.
  WindowStats window_stats() const;
  // Admitted-but-unanswered across the fleet (in-service included).
  std::size_t total_queue_depth() const;
  // Active replicas with nothing queued AND nothing in service — burning
  // a dispatcher for no work.  The over-provisioning metric the staged
  // ramp integrates into idle replica-seconds.
  std::size_t idle_replicas() const;

 private:
  struct ReplicaHandle {
    std::uint64_t generation = 0;
    std::atomic<ReplicaState> state{ReplicaState::kWarming};
    // Exactly one of {session+batcher, remote} is set: a local replica
    // owns its pipeline, a remote one owns the bridge to its process.
    // (shared_ptr so the incomplete rpc type needs no header here.)
    std::unique_ptr<InferenceSession> session;
    std::unique_ptr<ServerStats> stats;
    std::unique_ptr<MicroBatcher> batcher;
    std::shared_ptr<rpc::RemoteReplica> remote;
    std::atomic<std::size_t> routed{0};
    // Warm-up measurement bookkeeping (dynamically spawned replicas only).
    bool spawned_dynamic = false;
    std::size_t warmed_keys = 0;
    FeatureCacheStats cache_at_activation;
    std::chrono::steady_clock::time_point activated_at{};
    bool first_window_measured = false;
    // Rows handed to ring successors at retirement (scale_down).
    std::size_t handoff_keys = 0;
  };

  struct Membership {
    std::uint64_t epoch = 0;
    std::vector<std::shared_ptr<ReplicaHandle>> replicas;  // Active only
    HashRing ring;  // over the replicas' generations, in vector order
  };

  void init_config(const FleetConfig& cfg);
  void init(std::vector<std::unique_ptr<InferenceSession>> sessions,
            const FleetConfig& cfg);
  // Places envelope parts `slots` on replicas (ring split under
  // cache_affinity), re-routing draining bounces until every part is
  // admitted or terminally resolved.
  void place_parts(const std::shared_ptr<RequestState>& state,
                   std::vector<std::uint32_t> slots);
  // Ships one sub-batch to a remote replica; its fail path (transport
  // loss, draining server) removes the replica and re-routes through
  // place_parts.
  void submit_remote(const std::shared_ptr<ReplicaHandle>& h,
                     const std::shared_ptr<RequestState>& state,
                     std::vector<std::uint32_t> slots);
  // Crash detector's acting half: unpublish `h` (fresh epoch, fresh ring)
  // so re-routes cannot pick it again.  No-op for replicas that are not
  // Active — a draining/retiring replica is already unpublished by the
  // scaler, and taking admin_mu_ for it from a client I/O thread could
  // deadlock against the retirement that is joining that very thread.
  void remove_dead_replica(const std::shared_ptr<ReplicaHandle>& h);
  std::shared_ptr<ReplicaHandle> make_handle(
      std::unique_ptr<InferenceSession> session);
  std::shared_ptr<ReplicaHandle> make_remote_handle(
      std::shared_ptr<rpc::RemoteReplica> remote);
  // Routing load signal: local queue depth, or in-flight wire calls for a
  // remote replica.
  static std::size_t depth_of(const ReplicaHandle& h);
  static HashRing ring_over(
      const std::vector<std::shared_ptr<ReplicaHandle>>& replicas);
  // Loads the current snapshot; throws after stop().
  std::shared_ptr<const Membership> current() const;
  ReplicaSnapshot snapshot_of(const ReplicaHandle& h) const;
  // Pre-warms `fresh`'s cache from its peers under `next_ring` ownership;
  // returns rows admitted.  Caller holds admin_mu_.
  std::size_t warm_from_peers(ReplicaHandle& fresh,
                              const Membership& current_members,
                              const HashRing& next_ring);
  // The inverse at retirement: exports `victim`'s hot rows and admits each
  // into the cache of the ring successor `next` assigns it to; returns
  // rows admitted and queues the successor first-window measurement.
  // Caller holds admin_mu_.
  std::size_t handoff_to_successors(ReplicaHandle& victim,
                                    const Membership& next);
  void record_event(bool spawned, const ReplicaHandle& h,
                    std::uint64_t epoch, std::size_t replicas_after);
  // Every generation ever admitted plus the front's quota ledger, folded
  // into one recorder: what every aggregate_* accessor reads.
  std::unique_ptr<ServerStats> pooled_stats() const;
  // Fills first_window_hit_rate for spawned replicas one stats-window
  // after activation.  Controller-thread only.
  void measure_first_windows();
  // Fills successor_first_window_hit_rate for retire events one
  // stats-window after the handoff.  Controller-thread only.
  void measure_handoff_windows();
  void controller_loop();

  FleetConfig cfg_;
  Precision precision_ = Precision::kFp32;
  std::unique_ptr<FleetBuilder> builder_;  // null for fixed fleets
  RemoteSpawnFn remote_spawn_;             // set only for remote fleets
  std::unique_ptr<Router> router_;
  // Tenancy front gate (null unless cfg_.tenants): token buckets charged
  // per v2 envelope, and the front-side recorder for quota refusals —
  // refused envelopes never touch a replica, so their counters can only
  // live here.  Folded into the aggregates under a reserved generation.
  std::unique_ptr<tenancy::TenantAdmission> admission_;
  std::unique_ptr<ServerStats> front_stats_;

  // Swapped atomically via the std::atomic_load/atomic_store(shared_ptr*)
  // free functions rather than std::atomic<std::shared_ptr>: identical
  // semantics for this pattern (whole-pointer load/store, no CAS loops),
  // but libstdc++'s _Sp_atomic implements its internal lock as an
  // unannotated bit-spinlock that ThreadSanitizer cannot see, so the
  // tsan-autoscale CI leg would drown in false positives; the free
  // functions synchronize through a real mutex pool TSan understands.
  std::shared_ptr<const Membership> membership_;
  // Serializes scaling, stop, and the bookkeeping lists; never taken on
  // the submit path.
  mutable std::mutex admin_mu_;
  std::vector<std::shared_ptr<ReplicaHandle>> all_handles_;  // fleet history
  std::uint64_t next_generation_ = 0;
  bool stopped_ = false;

  std::chrono::steady_clock::time_point started_at_;
  mutable std::mutex events_mu_;
  std::vector<FleetEvent> events_;

  // One retirement handoff awaiting its successor first-window
  // measurement: the successors' cache counters at handoff time, so the
  // controller can compute the hit rate over ONLY the post-handoff window
  // (the mirror of measure_first_windows' cache_at_activation delta).
  struct PendingHandoffMeasure {
    std::uint64_t victim_generation = 0;
    std::chrono::steady_clock::time_point handed_at{};
    std::vector<std::pair<std::shared_ptr<ReplicaHandle>, FeatureCacheStats>>
        successors;
  };
  std::vector<PendingHandoffMeasure> pending_handoffs_;  // under admin_mu_

  std::unique_ptr<AutoscalePolicy> autoscaler_;  // null unless enabled
  std::thread controller_;
  std::mutex controller_mu_;
  std::condition_variable controller_cv_;
  bool controller_stop_ = false;
};

// The elastic fleet kept the old name's file; callers that predate the
// refactor read better unchanged.
using ReplicaSet = FleetManager;
using ReplicaSetConfig = FleetConfig;

}  // namespace ppgnn::serve
