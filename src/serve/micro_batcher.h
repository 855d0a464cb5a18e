// Dynamic micro-batching: coalesce concurrent requests into model-sized
// batches, behind the replica's admission core.
//
// One forward over b rows costs far less than b forwards over one row (the
// GEMM amortizes weight traffic and per-call overhead), so the classic
// serving trade applies: hold a request for up to max_delay hoping peers
// arrive, dispatch early when max_batch_size fills.  A single dispatcher
// thread owns the model and runs each forward itself, off the thread pool
// (core/pp_model.h), so a replica's compute capacity is one thread and
// results are deterministic regardless of how requests interleave —
// test_serve proves batched output is bit-identical to single-request
// inference.
//
// What enters the queue, what is shed or evicted, and what forms each
// batch is decided by an AdmissionQueue (admission_queue.h, which
// documents the overload modes, priority classes and deadlines); the
// fleet simulator drives the same class.  This file holds what wraps it:
// the mutex and condition variables, the backpressure wait, draining and
// stop, the dispatcher thread, stats, and resolving parts.
//
// A part carries a shared RequestState (serve_api.h) — one allocation per
// envelope — and delivery goes through the caller's CompletionQueue when
// the envelope's last part resolves.  The original future API survives as
// a thin shim (make_legacy_request) for the serve_cli autoscale loop, the
// bench's single-node drivers and the serve, replica-set and autoscale
// tests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/admission_queue.h"
#include "serve/inference_session.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"

namespace ppgnn::serve {

// Resolved into a shed request's future, and thrown by the blocking
// submit() on refusal.  Retriable by contract: the server is overloaded
// *now*; the same request succeeds once load drains.  Clients should back
// off and retry rather than treat this as a data error.
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(const char* what) : std::runtime_error(what) {}
  bool retriable() const { return true; }
};

struct BatchCounters {
  std::size_t requests = 0;  // parts dispatched into batches
  std::size_t batches = 0;
  std::size_t max_batch_observed = 0;
  // Admission verdicts, maintained by the batcher itself so they exist
  // even when no ServerStats sink is attached.
  AdmissionCounters admission;
  double mean_batch_size() const {
    return batches ? static_cast<double>(requests) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

// Outcome of a non-throwing legacy submit.  On rejection `result` is an
// invalid future (valid() == false) — check `accepted` first.
struct Admission {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  std::future<std::vector<float>> result;
};

// The legacy shims' envelope: a single-node request whose sink fulfils
// *result with the node's logits row, rethrows a backend error, and turns
// every other outcome (shed, deadline, draining) into RejectedError.  Used
// by MicroBatcher::try_submit and by the remote branch of
// FleetManager::try_submit.
std::shared_ptr<RequestState> make_legacy_request(
    std::int64_t node, Priority pri,
    std::future<std::vector<float>>* result);

class MicroBatcher {
 public:
  // stats may be null; when given, per-part latency (submit -> completion),
  // per-batch sizes, admission verdicts, deadline misses and per-stage
  // timings are recorded.
  MicroBatcher(InferenceSession& session, const MicroBatchConfig& cfg,
               ServerStats* stats = nullptr);
  ~MicroBatcher();  // stop() + join

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // --- API v2: envelope parts --------------------------------------------
  // Admits parts `slots[0..n)` of `state`'s request as one sub-batch,
  // all-or-nothing.  Returns kNone when admitted.  On every TERMINAL
  // refusal (kOverload -> parts finished kShed; kDeadline -> parts
  // finished kDeadlineExceeded) the batcher resolves the parts itself —
  // delivery happens through the envelope's queue/sink as usual.  Only
  // kDraining leaves the parts untouched: the caller re-routes them
  // against a fresh membership snapshot.  With shedding disabled this
  // blocks for queue space (backpressure) and only refuses on draining —
  // except a sub-batch larger than queue_capacity, which can never be
  // admitted and is refused kOverload in either mode (never blocks,
  // never throws: the exactly-one-response contract holds even for a
  // misconfigured giant envelope).  Throws std::runtime_error after
  // stop().
  RejectReason try_submit_parts(const std::shared_ptr<RequestState>& state,
                                const std::uint32_t* slots, std::size_t n);

  // --- PR-1 compatibility shims over a single-node envelope --------------
  // Status-returning admission; the future resolves to the node's logits
  // row, or throws RejectedError if the part is later shed.
  Admission try_submit(std::int64_t node, Priority pri = Priority::kHigh);
  // Throwing form: RejectedError on refusal (shedding enabled only).
  std::future<std::vector<float>> submit(std::int64_t node,
                                         Priority pri = Priority::kHigh);
  // Convenience closed-loop client call.
  std::vector<float> infer_blocking(std::int64_t node);

  // Enters draining: every subsequent submission returns kDraining
  // immediately (blocked backpressure waiters wake and return the same),
  // while everything already admitted — kHigh and kLow alike — still
  // dispatches and completes.  The first step of replica retirement: the
  // fleet unpublishes the replica, calls begin_drain() to bounce racing
  // submitters onto a fresh snapshot, then stop() to finish the queue.
  // Idempotent.
  void begin_drain();
  bool draining() const;

  // Drains everything already admitted, then joins the dispatcher.
  // Idempotent.
  void stop();

  BatchCounters counters() const;
  // Parts admitted but not yet answered: queued (both classes) plus the
  // batch currently in service.  The least-loaded router's load signal —
  // counting the in-service batch is what lets a replica stuck on a slow
  // batch (cold cache, page-cache miss) stop receiving new work.
  std::size_t queue_depth() const;
  // Queued only, in-service excluded — the autoscaler's idle signal.  A
  // healthy replica at moderate load keeps a batch in service almost
  // continuously, so queue_depth() > 0 nearly always; what distinguishes
  // over-provisioning is work *waiting* behind the current batch.
  std::size_t queued() const;

 private:
  using Part = AdmissionQueue::Part;

  void dispatcher_loop();
  // Waits for the batch window to close (size or max_delay, whichever
  // first; at once when stopping) and pops the batch; deadline-blown parts
  // go to `expired`.  Returns an empty batch only when stopping with an
  // empty queue.  `pop_time` is when the batch closed.
  std::vector<Part> next_batch(std::vector<Part>* expired,
                               std::chrono::steady_clock::time_point* pop_time);
  // Resolves shed parts (outside the lock) and records the stats — the
  // admission wait of a shed part is recorded too, so the shed-latency
  // column is honest, not zero.
  void finish_shed(std::vector<Part>& victims,
                   std::chrono::steady_clock::time_point now);

  InferenceSession& session_;
  MicroBatchConfig cfg_;
  ServerStats* stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_arrival_;  // queue became non-empty / stop
  std::condition_variable cv_space_;    // queue has room again
  AdmissionQueue queue_;                // guarded by mu_
  std::size_t in_service_ = 0;  // size of the batch being served
  BatchCounters counters_;
  bool stop_ = false;
  bool draining_ = false;

  std::thread dispatcher_;
};

}  // namespace ppgnn::serve
