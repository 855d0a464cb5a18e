// The admission core of one serving replica: which envelope parts (one
// (node, slot) of a ServeRequest each) enter its queue, which queued parts
// are dropped, and which form the next batch.  Single-threaded and
// clock-free — every call takes `now` from its caller — and it records
// nothing: it returns verdicts and dropped parts for its owner to resolve
// and count.  MicroBatcher (micro_batcher.h) wraps it in a mutex and a
// dispatcher thread; the fleet simulator (fleetsim/fleet_sim.h) keeps one
// per simulated replica, so it runs this code by construction.  Each
// priority class keeps one FIFO sub-queue per tenant, drained by
// deficit-weighted round-robin (tenancy/fair_share.h).
//
// Overload is handled in one of two modes:
//
//  * shed_budget == 0 (default): the queue is bounded (queue_capacity).
//    MicroBatcher blocks submitters until a sub-batch fits, so callers
//    feel backpressure instead of the server melting; both classes share
//    the kHigh class (no drop policy backs a strict-priority drain, so
//    queued kLow would starve under sustained kHigh load).
//
//  * shed_budget > 0: explicit load shedding.  Queue delay — how long the
//    oldest queued part has already waited — is the live overload signal.
//    Past the budget, arrivals are refused with a retriable verdict
//    instead of queued behind a deadline they can't make, and queued kLow
//    parts that have outlived their EFFECTIVE deadline — min(explicit
//    request deadline, enqueue time + budget) — are dropped.  Under
//    sustained overload the kLow queue drains to zero and kHigh arrivals
//    are refused too, so the sheddable class absorbs the overload first
//    but the budget binds for everyone.  Admitted kHigh is never evicted.
//
// Deadlines (cfg.deadline_aware, default on) add two behaviors:
//
//  * Dispatch-time shed: a part whose explicit deadline has passed when
//    its batch is popped is shed BEFORE compute instead of burning a batch
//    slot on an answer nobody will read.  This applies to both classes —
//    an explicit client deadline outranks the class contract, which only
//    governs *eviction*.
//
//  * Slack-ordered eviction: when admission must drop a queued kLow part
//    (making room for a kHigh arrival), the victim is the one with the
//    LEAST slack — nearest effective deadline — across every tenant's
//    sub-queue, rather than the FIFO head.  With no explicit deadlines
//    the two orders coincide (enqueue + budget is monotone in enqueue
//    time); with mixed deadlines FIFO evicts requests that could still
//    make it while keeping doomed ones.  bench_serving_latency section 6
//    measures the difference at 2x saturation.
//
// The shed/eviction order is a pure function of (entries, now, budget) —
// effective_deadline / least_slack_index below — so test_serve_api replays
// staged synthetic-clock traces and asserts exact victims.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "serve/clock.h"
#include "serve/serve_api.h"
#include "tenancy/fair_share.h"
#include "tenancy/tenant.h"

namespace ppgnn::serve {

struct MicroBatchConfig {
  std::size_t max_batch_size = 64;
  // Longest a request may wait for peers before its batch dispatches.
  std::chrono::microseconds max_delay{200};
  // Admission bound on queued (not yet dispatched) parts.
  std::size_t queue_capacity = 8192;
  // Queue-delay budget for load shedding; zero disables shedding and keeps
  // the blocking-backpressure behavior.
  std::chrono::microseconds shed_budget{0};
  // Off = the FIFO baseline: eviction in FIFO order, no dispatch-time
  // deadline shed (blown deadlines still complete and are *counted* as
  // misses — the bench's comparison arm).
  bool deadline_aware = true;
  // Time source for admission stamps, window closes and stage timings;
  // null = the real steady clock (serve/clock.h).  The dispatcher's
  // condition-variable waits stay real-time regardless — see clock.h for
  // why a sim-clocked batcher dispatches eagerly.
  const Clock* clock = nullptr;
  // Tenant contract table for fair-share batch composition (src/tenancy/).
  // When set, each priority class drains its per-tenant sub-queues by
  // deficit-weighted round-robin using the registry's weights; null (the
  // default) leaves every tenant at weight 1, which for a single-tenant
  // stream is exactly the old global FIFO.  Quota enforcement does NOT
  // live here — that's the fleet front's TenantAdmission; the batcher only
  // arbitrates order among already-admitted parts.
  const tenancy::TenantRegistry* tenants = nullptr;
};

// Why a sub-batch was refused.  kOverload is the admission verdict proper
// (queue-delay budget or capacity — the client should back off); kDeadline
// means the request's deadline had already passed at submit time.
// kDraining is MicroBatcher's lifecycle verdict, never AdmissionQueue's:
// the replica is being retired and was already removed from the routing
// membership; the submitter raced a stale snapshot and should re-route
// against a fresh one (the FleetManager does this transparently).
// Draining refusals are therefore NOT counted as rejections — the request
// is not lost, just re-homed — so they cannot pollute the shed-rate signal
// the autoscaler watches.
enum class RejectReason : std::uint8_t {
  kNone,
  kOverload,
  kDeadline,
  kDraining
};

// --- Pure slack policy -----------------------------------------------------

struct SlackView {
  std::chrono::steady_clock::time_point enqueued{};
  // Explicit request deadline; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

// The deadline the shed policy orders on: the explicit one when given,
// capped by enqueue + budget (the implicit client patience the queue-delay
// budget has always modeled).  With budget <= 0 only the explicit deadline
// binds.
std::chrono::steady_clock::time_point effective_deadline(
    const SlackView& e, std::chrono::steady_clock::duration budget);

// Index of the least-slack entry — nearest effective deadline, ties to the
// lowest index (oldest first under FIFO enqueue order) — or SIZE_MAX when
// empty.  This is the eviction victim order; with no explicit deadlines it
// degenerates to drop-head FIFO.
std::size_t least_slack_index(const std::vector<SlackView>& entries,
                              std::chrono::steady_clock::duration budget);

class AdmissionQueue {
 public:
  using Tp = std::chrono::steady_clock::time_point;

  // One queued envelope part.  tenant/enqueued/deadline are copied out of
  // the envelope so the shed policy never chases `state`.
  struct Part {
    std::int64_t node = 0;
    std::uint32_t slot = 0;
    std::uint32_t tenant = 0;
    std::shared_ptr<RequestState> state;  // null in the simulator
    Tp enqueued{};
    Tp deadline = Tp::max();  // explicit; max() = none
  };

  // Parts slots[0..n) of one envelope, offered as one all-or-nothing
  // sub-batch.  They share the envelope's class, deadline and tenant.
  struct Offer {
    std::shared_ptr<RequestState> state;  // null in the simulator
    const std::vector<std::int64_t>* nodes = nullptr;  // the envelope's
    const std::uint32_t* slots = nullptr;  // indices into *nodes
    std::size_t n = 0;
    Priority priority = Priority::kHigh;
    Tp deadline = Tp::max();  // explicit; max() = none
    std::uint32_t tenant = 0;
  };

  // Throws std::invalid_argument on a zero batch size or capacity.
  explicit AdmissionQueue(const MicroBatchConfig& cfg);

  // The admission verdict for `o` at `now`, in order of checks:
  //  1. more parts than the queue can ever hold: kOverload;
  //  2. an explicit deadline already passed (deadline_aware): kDeadline;
  //  3. no shed budget: kOverload when the parts do not fit.  MicroBatcher
  //     waits for room first, so only an open-loop replay reaches this;
  //  4. with a shed budget: expired kLow parts are swept out; a kHigh
  //     offer within budget evicts least-slack kLow parts when that alone
  //     makes it fit; then kOverload if the queue is over budget or full.
  // On kNone the parts are queued, stamped `now`.  Every part dropped on
  // the way — swept or evicted, even when the offer itself is refused — is
  // appended to *victims.  Never returns kDraining.
  RejectReason admit(const Offer& o, Tp now, std::vector<Part>* victims);

  // Pops the next batch at `now`: up to max_batch_size parts, kHigh
  // strictly before kLow, tenants within a class by DWRR (weights from one
  // registry snapshot per batch, so a contract flip takes effect at a
  // batch boundary).  With deadline_aware, a popped part whose explicit
  // deadline has passed is appended to *expired instead of the batch.
  // Pops at least one part unless the queue is empty.
  std::vector<Part> pop_batch(Tp now, std::vector<Part>* expired);

  // When the current batch window closes: the oldest queued arrival plus
  // max_delay.  Requires !empty().
  Tp window_close() const;

  std::size_t size() const { return queues_[0].size + queues_[1].size; }
  bool empty() const { return size() == 0; }

 private:
  // One priority class: FIFO per tenant, tenants arbitrated by DWRR at pop
  // time.  std::map keeps tenant iteration deterministic (sweeps, eviction
  // scans and expiry recomputes all walk tenants in ascending id order),
  // and `size` is maintained on every push/pop/erase so size() is O(1).
  struct ClassQueue {
    std::map<std::uint32_t, std::deque<Part>> by_tenant;
    tenancy::DwrrScheduler sched;
    std::size_t size = 0;
  };

  ClassQueue& low() {
    return queues_[static_cast<std::size_t>(Priority::kLow)];
  }
  static void push(ClassQueue& cq, Part&& p);
  // Enqueue time of the oldest queued part (either class); max() if none.
  Tp oldest_enqueued() const;
  bool over_budget(Tp now) const;
  // What the kLow sweep and eviction order on: the part's slack view,
  // its explicit deadline ignored when !deadline_aware, and the effective
  // deadline of that view.
  SlackView slack_view(const Part& p) const;
  Tp expiry(const Part& p) const;
  // Moves expired kLow parts into *victims.  O(1) when nothing can have
  // expired yet (gated on low_next_expiry_).
  void sweep_expired_low(Tp now, std::vector<Part>* victims);
  // Moves the GLOBALLY least-slack kLow part — scanned across every tenant
  // sub-queue, never just one tenant's head — into *victims.  Requires a
  // non-empty kLow class.
  void evict_one_low(std::vector<Part>* victims);
  void recompute_low_expiry();

  MicroBatchConfig cfg_;
  ClassQueue queues_[2];  // indexed by Priority
  // Earliest effective deadline among queued kLow parts; max() when none
  // (or no budget).  Lets admit() skip the expiry sweep in O(1).
  Tp low_next_expiry_ = Tp::max();
};

}  // namespace ppgnn::serve
