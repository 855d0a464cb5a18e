#include "fleetsim/fleet_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "serve/admission_queue.h"
#include "serve/clock.h"
#include "serve/router.h"
#include "tenancy/admission.h"

namespace ppgnn::fleetsim {

namespace {

using serve::Priority;
using Part = serve::AdmissionQueue::Part;
using Tp = std::chrono::steady_clock::time_point;
using Dur = std::chrono::steady_clock::duration;

Tp us_to_tp(std::uint64_t t_us) {
  return Tp(std::chrono::duration_cast<Dur>(std::chrono::microseconds(t_us)));
}

double tp_seconds(Tp t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// One replica: the REAL AdmissionQueue and ServerStats recorder (on the
// sim clock) plus the modeled cache/service state that stands in for the
// MicroBatcher's dispatcher thread.
struct SimReplica {
  std::uint64_t generation = 0;
  std::unique_ptr<serve::ServerStats> stats;
  CacheModel cache;
  serve::AdmissionQueue queue;
  std::size_t in_service = 0;
  bool busy = false;
  bool draining = false;
  bool retired = false;
  bool timer_pending = false;  // a dispatch timer is in the heap
  Tp activated_at{};
  Tp retired_at{};
  std::size_t warmed_keys = 0;
  double busy_seconds = 0;

  SimReplica(std::uint64_t gen, std::chrono::milliseconds window,
             const serve::Clock* clock, const CacheModelConfig& cache_cfg,
             std::size_t warm_rows, std::size_t shards,
             const serve::MicroBatchConfig& batch)
      : generation(gen),
        stats(std::make_unique<serve::ServerStats>(window, clock)),
        cache(cache_cfg, warm_rows, shards),
        queue(batch) {}

  std::size_t queue_depth() const { return queue.size() + in_service; }
};

enum class EvKind : std::uint8_t {
  kArrival,       // a = trace index
  kDispatch,      // a = replica index: batch window closed
  kCompletion,    // a = replica index: in-service batch finished
  kTick,          // controller tick
  kSpawnDone,     // scale_up build finished
  kTimeline
};

struct Ev {
  Tp t{};
  std::uint64_t seq = 0;  // FIFO among simultaneous events => determinism
  EvKind kind = EvKind::kArrival;
  std::size_t a = 0;
};

struct EvLater {
  bool operator()(const Ev& x, const Ev& y) const {
    if (x.t != y.t) return x.t > y.t;
    return x.seq > y.seq;
  }
};

class Sim {
 public:
  Sim(const SimFleetConfig& cfg, const ServiceModel& model,
      const std::vector<serve::TraceEvent>& trace)
      : cfg_(cfg), model_(model), trace_(trace), batch_(cfg.batch) {
    if (cfg_.initial_replicas == 0) {
      throw std::invalid_argument("FleetSim: initial_replicas must be > 0");
    }
    // The replicas' DWRR weights come from the sim's tenant table.
    batch_.tenants = cfg_.tenants;
    router_ = serve::make_router(cfg_.policy);
    if (cfg_.autoscale.enabled) {
      policy_ = std::make_unique<serve::AutoscalePolicy>(cfg_.autoscale);
    }
    if (cfg_.tenants) {
      // The REAL token-bucket gate, fed the sim clock's timestamps — the
      // admit/refuse sequence is bit-identical with the live front's.
      admission_ = std::make_unique<tenancy::TenantAdmission>(*cfg_.tenants,
                                                             &clock_);
    }
  }

  SimResult run() {
    const auto wall_start = std::chrono::steady_clock::now();
    // Initial fleet, like FleetManager's constructor: all replicas active
    // at t=0, caches at the configured initial fill.
    const std::size_t init_warm = static_cast<std::size_t>(
        cfg_.initial_fill *
        static_cast<double>(cfg_.cache.capacity_rows));
    for (std::size_t i = 0; i < cfg_.initial_replicas; ++i) {
      reps_.emplace_back(next_generation_++, cfg_.stats_window, &clock_,
                         cfg_.cache, init_warm, 1, batch_);
      reps_.back().activated_at = clock_.now();
      members_.push_back(i);
    }
    in_flight_.resize(reps_.size());
    service_started_.resize(reps_.size());
    publish_membership();
    if (policy_) push(clock_.now() + cfg_.autoscale.tick, EvKind::kTick);
    if (cfg_.timeline_every.count() > 0) {
      push(clock_.now(), EvKind::kTimeline);
    }
    if (!trace_.empty()) {
      push(us_to_tp(trace_[0].t_us), EvKind::kArrival, 0);
      first_arrival_ = us_to_tp(trace_[0].t_us);
      last_activity_ = first_arrival_;
    }

    while (!heap_.empty()) {
      const Ev ev = heap_.top();
      heap_.pop();
      // Periodic events stop re-arming once the trace is fully drained;
      // stale ones still in the heap are skipped so the loop terminates.
      if (done() &&
          (ev.kind == EvKind::kTick || ev.kind == EvKind::kTimeline ||
           ev.kind == EvKind::kDispatch)) {
        continue;
      }
      clock_.set(ev.t);
      const Tp now = clock_.now();
      switch (ev.kind) {
        case EvKind::kArrival:
          handle_arrival(ev.a, now);
          break;
        case EvKind::kDispatch:
          reps_[ev.a].timer_pending = false;
          maybe_dispatch(ev.a, now);
          break;
        case EvKind::kCompletion:
          handle_completion(ev.a, now);
          break;
        case EvKind::kTick:
          handle_tick(now);
          break;
        case EvKind::kSpawnDone:
          handle_spawn_done(now);
          break;
        case EvKind::kTimeline:
          handle_timeline(now);
          break;
      }
    }
    return finish(wall_start);
  }

 private:
  // --- event plumbing ------------------------------------------------------

  void push(Tp t, EvKind kind, std::size_t a = 0) {
    heap_.push(Ev{t, seq_++, kind, a});
  }

  bool done() const {
    if (arrival_idx_ < trace_.size()) return false;
    if (spawn_pending_ || drain_pending_ != kNone) return false;
    for (const auto& r : reps_) {
      if (!r.retired && (r.busy || !r.queue.empty())) return false;
    }
    return true;
  }

  // --- membership ----------------------------------------------------------

  void publish_membership() {
    std::vector<std::uint64_t> generations;
    generations.reserve(members_.size());
    for (const std::size_t i : members_) {
      generations.push_back(reps_[i].generation);
    }
    ring_ = serve::HashRing(generations);
    // Under cache_affinity the ring thins each replica's key stream to
    // 1/N of the ranks; other policies spread every key everywhere.
    const std::size_t shards =
        cfg_.policy == serve::RoutingPolicy::kCacheAffinity
            ? std::max<std::size_t>(members_.size(), 1)
            : 1;
    for (const std::size_t i : members_) reps_[i].cache.set_shards(shards);
    max_replicas_seen_ = std::max(max_replicas_seen_, members_.size());
  }

  // --- arrivals / admission ------------------------------------------------

  void handle_arrival(std::size_t idx, Tp now) {
    const serve::TraceEvent& e = trace_[idx];
    arrival_idx_ = idx + 1;
    if (arrival_idx_ < trace_.size()) {
      push(us_to_tp(trace_[arrival_idx_].t_us), EvKind::kArrival,
           arrival_idx_);
    }
    Priority pri = e.priority;
    Tp deadline = e.deadline_us > 0
                      ? now + std::chrono::microseconds(e.deadline_us)
                      : Tp::max();
    // Tenant gate, same order as FleetManager::submit: the contract's
    // rewrites, then the token bucket on the sim clock.  A refusal never
    // reaches routing — the envelope dies at the front as kQuotaExceeded.
    if (admission_) {
      tenancy::apply_contract(cfg_.tenants->snapshot()->of(e.tenant),
                              clock_, &pri, &deadline);
      if (!admission_->try_admit(e.tenant, e.nodes.size())) {
        quota_refused_ += e.nodes.size();
        quota_refused_by_[e.tenant] += e.nodes.size();
        return;
      }
    }
    // Route through FleetManager's placement.  The sim has no racing
    // scaler thread, so the snapshot is always current and the kDraining
    // bounce-and-retry path cannot trigger (membership never contains a
    // draining replica here).
    std::vector<std::uint32_t> slots(e.nodes.size());
    std::iota(slots.begin(), slots.end(), 0u);
    const serve::QueueDepthFn depth = [this](std::size_t i) {
      return reps_[members_[i]].queue_depth();
    };
    serve::RouteTargets targets;
    targets.count = members_.size();
    targets.queue_depth = &depth;
    targets.ring = &ring_;
    for (const serve::SubBatch& g :
         serve::route_envelope(*router_, e.nodes, std::move(slots), targets)) {
      admit_parts(members_[g.member], e, g.slots, pri, deadline, now);
    }
  }

  // One sub-batch through the replica's AdmissionQueue, the class the live
  // MicroBatcher wraps.  One deliberate divergence: with shed_budget == 0
  // the real batcher BLOCKS the submitter until the parts fit; an
  // open-loop replay cannot park the arrival process, so the queue's
  // capacity verdict refuses instead (bounded-queue admission).  Stats
  // calls match the batcher's call for call.
  void admit_parts(std::size_t ri, const serve::TraceEvent& e,
                   const std::vector<std::uint32_t>& slots, Priority pri,
                   Tp deadline, Tp now) {
    SimReplica& r = reps_[ri];
    std::vector<Part> victims;
    const serve::RejectReason reason = r.queue.admit(
        {nullptr, &e.nodes, slots.data(), slots.size(), pri, deadline,
         e.tenant},
        now, &victims);
    finish_shed(r, victims, now);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (reason == serve::RejectReason::kNone) {
        r.stats->record_admitted(e.tenant);
      } else {
        r.stats->record_rejected(e.tenant);
        if (reason == serve::RejectReason::kDeadline) {
          r.stats->record_deadline_miss();
        }
      }
    }
    if (reason == serve::RejectReason::kNone) maybe_dispatch(ri, now);
  }

  void finish_shed(SimReplica& r, const std::vector<Part>& victims, Tp now) {
    for (const Part& p : victims) {
      r.stats->record_shed(p.tenant);
      r.stats->record_shed_wait(
          std::chrono::duration<double, std::micro>(now - p.enqueued)
              .count());
      if (p.deadline < now) r.stats->record_deadline_miss();
    }
  }

  // --- dispatch / service --------------------------------------------------

  // The dispatcher thread's decision rule as a pure function of (queue,
  // now): dispatch when the batch fills, when the window (oldest arrival +
  // max_delay) closes, or immediately while draining (stop() dispatches
  // without waiting — drain latency beats batch quality).
  void maybe_dispatch(std::size_t ri, Tp now) {
    SimReplica& r = reps_[ri];
    if (r.busy || r.retired || r.queue.empty()) return;
    const Tp window_close = r.queue.window_close();
    if (r.draining || r.queue.size() >= cfg_.batch.max_batch_size ||
        now >= window_close) {
      start_batch(ri, now);
    } else if (!r.timer_pending) {
      // Lazy revalidation: the timer re-runs this check at the window
      // close; shedding may have emptied the queue by then, which the
      // re-check absorbs (mirrors the dispatcher's wait loop re-testing
      // its predicate).
      r.timer_pending = true;
      push(window_close, EvKind::kDispatch, ri);
    }
  }

  void start_batch(std::size_t ri, Tp now) {
    SimReplica& r = reps_[ri];
    std::vector<Part> expired;
    std::vector<Part> batch_parts = r.queue.pop_batch(now, &expired);
    finish_shed(r, expired, now);
    const std::size_t batch = batch_parts.size();
    if (batch == 0) {
      // Whole pop was deadline-shed; queues are empty now (the pop loop
      // only stops early when the batch fills).
      return;
    }
    for (const Part& p : batch_parts) {
      r.stats->record_queue_delay(
          std::chrono::duration<double, std::micro>(now - p.enqueued)
              .count());
    }
    const double hit = r.cache.hit_rate();
    // Timesharing: batches in flight right now contend for the cores; this
    // one joins them.  In-flight service times keep their dispatch-time
    // estimate (first-order, like any fluid model of a scheduler).
    const std::size_t sharing = busy_count_ + 1;
    const double service_us = model_.batch_service_us(batch, hit, sharing);
    r.cache.on_batch(batch);
    hit_rows_ += hit * static_cast<double>(batch);
    dispatched_rows_ += static_cast<double>(batch);
    ++batches_dispatched_;
    r.in_service = batch;
    r.busy = true;
    ++busy_count_;
    r.busy_seconds += service_us * 1e-6;
    in_flight_[ri] = std::move(batch_parts);
    service_started_[ri] = now;
    push(now + std::chrono::duration_cast<Dur>(
                   std::chrono::duration<double, std::micro>(service_us)),
         EvKind::kCompletion, ri);
  }

  void handle_completion(std::size_t ri, Tp now) {
    SimReplica& r = reps_[ri];
    const std::vector<Part> batch = std::move(in_flight_[ri]);
    in_flight_[ri].clear();
    const Tp t_pop = service_started_[ri];
    r.stats->record_batch(batch.size());
    for (const Part& p : batch) {
      const double admission_us =
          std::chrono::duration<double, std::micro>(t_pop - p.enqueued)
              .count();
      const double compute_us =
          std::chrono::duration<double, std::micro>(now - t_pop).count();
      r.stats->record(
          std::chrono::duration<double, std::micro>(now - p.enqueued)
              .count(),
          p.tenant);
      // The modeled service time folds the dispatch gap into compute.
      r.stats->record_stages(admission_us, 0.0, compute_us);
      if (p.deadline < now) r.stats->record_deadline_miss();
    }
    last_activity_ = std::max(last_activity_, now);
    r.busy = false;
    r.in_service = 0;
    --busy_count_;
    if (r.draining && r.queue.empty()) {
      finalize_retire(ri, now);
      return;
    }
    maybe_dispatch(ri, now);
  }

  // --- controller ----------------------------------------------------------

  serve::FleetSignals signals(Tp now) const {
    std::vector<const serve::ServerStats*> stats;
    std::size_t queued = 0;
    for (const std::size_t i : members_) {
      stats.push_back(reps_[i].stats.get());
      queued += reps_[i].queue.size();  // queued-only, like the fleet
    }
    return serve::fleet_signals(stats, now, cfg_.batch.max_batch_size,
                                queued);
  }

  void handle_tick(Tp now) {
    const serve::FleetSignals s = signals(now);
    const serve::ScaleAction action = policy_->on_tick(s, now);
    if (action == serve::ScaleAction::kUp &&
        s.replicas < cfg_.autoscale.max_replicas) {
      // scale_up builds synchronously ON the controller thread: membership
      // publishes when the build completes, and the next tick waits for it.
      spawn_pending_ = true;
      push(now + cfg_.spawn_latency, EvKind::kSpawnDone);
      return;
    }
    if (action == serve::ScaleAction::kDown &&
        s.replicas > cfg_.autoscale.min_replicas) {
      scale_down(now);
      return;  // next tick scheduled at drain completion
    }
    push(now + cfg_.autoscale.tick, EvKind::kTick);
  }

  void handle_spawn_done(Tp now) {
    spawn_pending_ = false;
    const std::size_t ri = reps_.size();
    const std::size_t warm =
        std::min(cfg_.warm_keys, cfg_.cache.capacity_rows);
    reps_.emplace_back(next_generation_++, cfg_.stats_window, &clock_,
                       cfg_.cache, warm, 1, batch_);
    SimReplica& r = reps_.back();
    r.activated_at = now;
    r.warmed_keys = warm;
    in_flight_.resize(reps_.size());
    service_started_.resize(reps_.size());
    members_.push_back(ri);
    publish_membership();
    SimEvent ev;
    ev.t_seconds = tp_seconds(now);
    ev.spawned = true;
    ev.generation = r.generation;
    ev.replicas_after = members_.size();
    ev.warmed_keys = warm;
    ev.first_window_hit_rate = r.cache.hit_rate();
    events_.push_back(ev);
    push(now + cfg_.autoscale.tick, EvKind::kTick);
  }

  void scale_down(Tp now) {
    if (members_.size() <= 1) return;  // FleetManager never goes below one
    // Retire the YOUNGEST (membership is in spawn order), unpublish FIRST
    // so no new work routes there, then drain: admitted work completes.
    const std::size_t ri = members_.back();
    members_.pop_back();
    publish_membership();
    SimReplica& r = reps_[ri];
    r.draining = true;
    if (!r.busy && r.queue.empty()) {
      finalize_retire(ri, now);
      return;
    }
    drain_pending_ = ri;
    maybe_dispatch(ri, now);  // draining dispatches eagerly
  }

  void finalize_retire(std::size_t ri, Tp now) {
    SimReplica& r = reps_[ri];
    r.retired = true;
    r.retired_at = now;
    SimEvent ev;
    ev.t_seconds = tp_seconds(now);
    ev.spawned = false;
    ev.generation = r.generation;
    ev.replicas_after = members_.size();
    ev.warmed_keys = r.warmed_keys;
    ev.first_window_hit_rate = r.cache.hit_rate();
    events_.push_back(ev);
    if (drain_pending_ == ri) {
      // The controller was blocked on this drain (scale_down is
      // synchronous); it resumes one tick after the drain completes.
      drain_pending_ = kNone;
      push(now + cfg_.autoscale.tick, EvKind::kTick);
    }
  }

  void handle_timeline(Tp now) {
    SimTimelinePoint p;
    p.t_seconds = tp_seconds(now);
    p.replicas = members_.size();
    for (const std::size_t i : members_) {
      p.queued += reps_[i].queue.size();
      if (!reps_[i].busy) ++p.idle;
    }
    timeline_.push_back(p);
    push(now + cfg_.timeline_every, EvKind::kTimeline);
  }

  // --- wrap-up -------------------------------------------------------------

  SimResult finish(std::chrono::steady_clock::time_point wall_start) {
    SimResult res;
    const Tp end = std::max(clock_.now(), last_activity_);
    serve::ServerStats pool(cfg_.stats_window, &clock_);
    for (const SimReplica& r : reps_) {
      pool.merge_once(*r.stats, r.generation);
      const Tp until = r.retired ? r.retired_at : end;
      const double alive =
          std::chrono::duration<double>(until - r.activated_at).count();
      res.replica_seconds += std::max(0.0, alive);
      res.idle_replica_seconds += std::max(0.0, alive - r.busy_seconds);
    }
    // Quota refusals happened at the sim's front, before any replica —
    // fold them into the pool so the per-tenant slices carry them, while
    // AdmissionCounters (and thus shed_rate, the autoscale signal) stay
    // quota-blind exactly like the live front's.
    for (const auto& [t, n] : quota_refused_by_) {
      pool.record_quota_refused(t, n);
    }
    const serve::AdmissionCounters adm = pool.admission();
    res.offered_parts = adm.offered();
    res.admitted = adm.admitted;
    res.rejected = adm.rejected;
    res.quota_refused = quota_refused_;
    res.shed = adm.shed;
    res.shed_rate = adm.shed_rate();
    res.deadline_missed = pool.deadline_missed();
    res.admitted_latency = pool.summary();
    res.answered = res.admitted_latency.count;
    res.span_seconds = !trace_.empty()
                           ? std::chrono::duration<double>(
                                 std::max(last_activity_, first_arrival_) -
                                 first_arrival_)
                                 .count()
                           : 0.0;
    res.answered_rps = res.span_seconds > 0
                           ? static_cast<double>(res.answered) /
                                 res.span_seconds
                           : 0.0;
    res.max_replicas_seen = max_replicas_seen_;
    res.mean_hit_rate =
        dispatched_rows_ > 0 ? hit_rows_ / dispatched_rows_ : 0.0;
    res.mean_batch = batches_dispatched_
                         ? dispatched_rows_ /
                               static_cast<double>(batches_dispatched_)
                         : 0.0;
    std::vector<serve::TenantStat> slices = pool.tenant_stats();
    // Suppress the degenerate single-slice table for pre-tenancy runs
    // (no registry, everything tenant 0) — their JSON stays as it was.
    if (cfg_.tenants ||
        !(slices.size() == 1 && slices[0].tenant == 0)) {
      res.tenants = std::move(slices);
    }
    res.events = std::move(events_);
    res.timeline = std::move(timeline_);
    res.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return res;
  }

  static constexpr std::size_t kNone = SIZE_MAX;

  const SimFleetConfig& cfg_;
  const ServiceModel& model_;
  const std::vector<serve::TraceEvent>& trace_;
  serve::MicroBatchConfig batch_;  // cfg_.batch with the sim's tenant table

  serve::SimClock clock_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<serve::AutoscalePolicy> policy_;
  std::vector<SimReplica> reps_;
  std::vector<std::size_t> members_;  // active, in spawn order
  serve::HashRing ring_;
  std::uint64_t next_generation_ = 1;

  std::unique_ptr<tenancy::TenantAdmission> admission_;
  std::size_t quota_refused_ = 0;
  std::map<std::uint32_t, std::size_t> quota_refused_by_;

  std::priority_queue<Ev, std::vector<Ev>, EvLater> heap_;
  std::uint64_t seq_ = 0;
  std::size_t arrival_idx_ = 0;
  bool spawn_pending_ = false;
  std::size_t drain_pending_ = kNone;
  std::size_t busy_count_ = 0;
  // Parts in service per replica (index-aligned with reps_).
  std::vector<std::vector<Part>> in_flight_;
  std::vector<Tp> service_started_;

  Tp first_arrival_{};
  Tp last_activity_{};
  double hit_rows_ = 0;
  double dispatched_rows_ = 0;
  std::size_t batches_dispatched_ = 0;
  std::size_t max_replicas_seen_ = 0;
  std::vector<SimEvent> events_;
  std::vector<SimTimelinePoint> timeline_;
};

}  // namespace

FleetSim::FleetSim(const SimFleetConfig& cfg, const ServiceModel& model)
    : cfg_(cfg), model_(model) {}

SimResult FleetSim::run(const std::vector<serve::TraceEvent>& trace) {
  Sim sim(cfg_, model_, trace);
  return sim.run();
}

std::string SimResult::event_signature() const {
  std::string sig;
  sig.reserve(events.size());
  for (const SimEvent& e : events) sig.push_back(e.spawned ? 'u' : 'd');
  return sig;
}

std::string SimResult::to_json() const {
  std::ostringstream os;
  os << "{\"offered_parts\":" << offered_parts << ",\"admitted\":" << admitted
     << ",\"rejected\":" << rejected
     << ",\"quota_refused\":" << quota_refused << ",\"shed\":" << shed
     << ",\"answered\":" << answered
     << ",\"deadline_missed\":" << deadline_missed
     << ",\"shed_rate\":" << shed_rate << ",\"answered_rps\":" << answered_rps
     << ",\"span_seconds\":" << span_seconds
     << ",\"max_replicas\":" << max_replicas_seen
     << ",\"replica_seconds\":" << replica_seconds
     << ",\"idle_replica_seconds\":" << idle_replica_seconds
     << ",\"mean_hit_rate\":" << mean_hit_rate
     << ",\"mean_batch\":" << mean_batch
     << ",\"events\":\"" << event_signature() << "\""
     << ",\"latency\":" << admitted_latency.to_json();
  if (!tenants.empty()) {
    os << ",\"tenants\":[";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (i) os << ",";
      os << tenants[i].to_json();
    }
    os << "]";
  }
  os << ",\"sim_wall_seconds\":" << sim_wall_seconds << "}";
  return os.str();
}

}  // namespace ppgnn::fleetsim
