#include "serve/micro_batcher.h"

#include <algorithm>
#include <utility>

namespace ppgnn::serve {

std::shared_ptr<RequestState> make_legacy_request(
    std::int64_t node, Priority pri,
    std::future<std::vector<float>>* result) {
  auto prom = std::make_shared<std::promise<std::vector<float>>>();
  *result = prom->get_future();
  ServeRequest req;
  req.nodes.push_back(node);
  req.priority = pri;
  return std::make_shared<RequestState>(
      std::move(req), [prom](ServeResponse&& r) {
        if (r.status == ServeStatus::kOk) {
          prom->set_value(std::move(r.logits[0]));
        } else if (r.status == ServeStatus::kError && r.error) {
          prom->set_exception(r.error);
        } else {
          prom->set_exception(std::make_exception_ptr(
              RejectedError("shed by admission control")));
        }
      });
}

MicroBatcher::MicroBatcher(InferenceSession& session,
                           const MicroBatchConfig& cfg, ServerStats* stats)
    : session_(session), cfg_(cfg), stats_(stats), queue_(cfg) {
  cfg_.clock = clock_or_real(cfg_.clock);  // every now() below is injected
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

void MicroBatcher::finish_shed(std::vector<Part>& victims,
                               std::chrono::steady_clock::time_point now) {
  for (Part& p : victims) {
    // An entry whose explicit deadline has passed is a deadline miss
    // whichever policy dropped it; one shed while it could still have
    // been answered elsewhere is a plain (retriable) shed.
    const bool missed = p.deadline < now;
    StageTimings t;
    t.admission_wait_us =
        std::chrono::duration<double, std::micro>(now - p.enqueued).count();
    if (stats_) {
      stats_->record_shed(p.tenant);
      // The honest shed column: a shed part's queue wait was latency its
      // client paid — record it instead of reporting zeros.
      stats_->record_shed_wait(t.admission_wait_us);
      if (missed) stats_->record_deadline_miss();
    }
    p.state->finish_part(p.slot,
                         missed ? ServeStatus::kDeadlineExceeded
                                : ServeStatus::kShed,
                         nullptr, 0, t);
  }
  victims.clear();
}

RejectReason MicroBatcher::try_submit_parts(
    const std::shared_ptr<RequestState>& state, const std::uint32_t* slots,
    std::size_t n) {
  if (n == 0) return RejectReason::kNone;
  const ServeRequest& req = state->request();
  const std::uint32_t tenant = req.tenant;
  std::vector<Part> victims;
  RejectReason reason;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // A sub-batch that can never fit skips the wait and the lifecycle
    // checks: the queue refuses it kOverload, so it neither blocks forever
    // nor throws out of the exactly-one-response contract.
    if (n <= cfg_.queue_capacity) {
      if (cfg_.shed_budget.count() <= 0) {
        // Backpressure mode: block for space — unless the replica starts
        // draining, which must wake blocked waiters and turn them away
        // (they re-route; see begin_drain in the header).
        cv_space_.wait(lk, [this, n] {
          return stop_ || draining_ ||
                 queue_.size() + n <= cfg_.queue_capacity;
        });
      }
      // Draining outranks stopped: a retired replica's batcher is both,
      // and a straggler routed by a pre-resize snapshot (it may have slept
      // through the whole drain) must get the re-routable bounce, not the
      // "server shut down" error reserved for a stopped fleet.
      if (draining_) return RejectReason::kDraining;
      if (stop_) throw std::runtime_error("MicroBatcher: stopped");
    }
    reason = queue_.admit({state, &req.nodes, slots, n, req.priority,
                           req.deadline, tenant},
                          cfg_.clock->now(), &victims);
    counters_.admission.shed += victims.size();
    if (reason == RejectReason::kNone) {
      counters_.admission.admitted += n;
    } else {
      counters_.admission.rejected += n;
    }
  }
  // Deliveries and stats happen outside the queue lock: finishing a part
  // may run an arbitrary caller callback (CompletionQueue sinks), and a
  // callback that blocked on mu_ would deadlock the admission path.
  if (!victims.empty()) {
    cv_space_.notify_all();
    finish_shed(victims, cfg_.clock->now());
  }
  if (reason == RejectReason::kNone) {
    if (stats_) {
      for (std::size_t i = 0; i < n; ++i) stats_->record_admitted(tenant);
    }
    cv_arrival_.notify_one();
    return RejectReason::kNone;
  }
  // Terminal refusal: the batcher resolves the parts itself (kDraining
  // never reaches here — the caller re-routes those).
  const bool deadline_refusal = reason == RejectReason::kDeadline;
  for (std::size_t i = 0; i < n; ++i) {
    if (stats_) {
      stats_->record_rejected(tenant);
      if (deadline_refusal) stats_->record_deadline_miss();
    }
    state->finish_part(slots[i],
                       deadline_refusal ? ServeStatus::kDeadlineExceeded
                                        : ServeStatus::kShed,
                       nullptr, 0, StageTimings{});
  }
  return reason;
}

Admission MicroBatcher::try_submit(std::int64_t node, Priority pri) {
  // The future-based surface as a thin shim over a single-node envelope,
  // at the cost of the promise allocation the v2 path exists to avoid.
  Admission a;
  const auto state = make_legacy_request(node, pri, &a.result);
  const std::uint32_t slot = 0;
  a.reason = try_submit_parts(state, &slot, 1);
  a.accepted = a.reason == RejectReason::kNone;
  if (!a.accepted) a.result = {};
  return a;
}

std::future<std::vector<float>> MicroBatcher::submit(std::int64_t node,
                                                     Priority pri) {
  Admission a = try_submit(node, pri);
  if (!a.accepted) {
    throw RejectedError("rejected at admission: queue-delay budget exceeded");
  }
  return std::move(a.result);
}

std::vector<float> MicroBatcher::infer_blocking(std::int64_t node) {
  return submit(node).get();
}

std::vector<AdmissionQueue::Part> MicroBatcher::next_batch(
    std::vector<Part>* expired,
    std::chrono::steady_clock::time_point* pop_time) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_arrival_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return {};  // stopping and fully drained
    // The batch window opens when the oldest pending request arrived; close
    // it at size or deadline, whichever first.  On stop, dispatch
    // immediately — drain latency beats batch quality during shutdown.
    const auto window_close = queue_.window_close();
    while (!stop_ && queue_.size() < cfg_.max_batch_size) {
      if (cv_arrival_.wait_until(lk, window_close) ==
          std::cv_status::timeout) {
        break;
      }
    }
    // Shedding may have emptied the queue while the window was open.
    if (queue_.empty()) continue;
    const auto now = cfg_.clock->now();
    std::vector<Part> batch = queue_.pop_batch(now, expired);
    counters_.admission.shed += expired->size();
    if (!batch.empty()) {
      counters_.requests += batch.size();
      ++counters_.batches;
      counters_.max_batch_observed =
          std::max(counters_.max_batch_observed, batch.size());
      in_service_ = batch.size();  // cleared by the dispatcher once answered
    }
    *pop_time = now;
    lk.unlock();
    cv_space_.notify_all();
    if (stats_) {
      // Queue delay (enqueue -> dispatch) is the overload signal the
      // autoscaler watches; record it at the moment the wait ends.
      for (const Part& p : batch) {
        stats_->record_queue_delay(
            std::chrono::duration<double, std::micro>(now - p.enqueued)
                .count());
      }
    }
    return batch;
  }
}

void MicroBatcher::dispatcher_loop() {
  std::vector<std::int64_t> nodes;
  std::vector<Part> expired;
  for (;;) {
    expired.clear();
    std::chrono::steady_clock::time_point t_pop{};
    std::vector<Part> batch = next_batch(&expired, &t_pop);
    const bool had_expired = !expired.empty();
    if (had_expired) finish_shed(expired, t_pop);
    if (batch.empty()) {
      if (!had_expired) return;  // stopped and drained
      continue;  // the whole pop was deadline-shed; wait for more work
    }
    nodes.clear();
    for (const auto& p : batch) nodes.push_back(p.node);
    const auto t_start = cfg_.clock->now();
    try {
      const Tensor logits = session_.infer_nodes(nodes);
      const auto done = cfg_.clock->now();
      if (stats_) stats_->record_batch(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Part& p = batch[i];
        StageTimings t;
        t.admission_wait_us =
            std::chrono::duration<double, std::micro>(t_pop - p.enqueued)
                .count();
        t.dispatch_delay_us =
            std::chrono::duration<double, std::micro>(t_start - t_pop)
                .count();
        t.compute_us =
            std::chrono::duration<double, std::micro>(done - t_start).count();
        // A part finished past its deadline is answered anyway — the
        // results may still be useful — but flagged as a miss.  Counted
        // in BOTH eviction modes, so the FIFO baseline's misses are
        // measured, just not acted on.
        const bool late = p.deadline < done;
        // Record before finishing: a finished part may release the
        // client, which could read stats before this loop moves on.
        if (stats_) {
          stats_->record(std::chrono::duration<double, std::micro>(
                             done - p.enqueued)
                             .count(),
                         p.tenant);
          stats_->record_stages(t.admission_wait_us, t.dispatch_delay_us,
                                t.compute_us);
          if (late) stats_->record_deadline_miss();
        }
        p.state->finish_part(
            p.slot, late ? ServeStatus::kDeadlineExceeded : ServeStatus::kOk,
            logits.row(i), logits.cols(), t);
      }
    } catch (...) {
      // A bad node id (or any backend failure) fails this batch's
      // requests, not the server.
      for (auto& p : batch) {
        p.state->finish_part(p.slot, ServeStatus::kError, nullptr, 0,
                             StageTimings{}, std::current_exception());
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    in_service_ = 0;
  }
}

void MicroBatcher::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  // Wake backpressure-blocked submitters so they can re-route.
  cv_space_.notify_all();
}

bool MicroBatcher::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_arrival_.notify_all();
  cv_space_.notify_all();
  // Claim the thread under the lock so concurrent stop() calls (e.g. an
  // explicit stop racing the destructor) can't both join it.
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    t = std::move(dispatcher_);
  }
  if (t.joinable()) t.join();
}

BatchCounters MicroBatcher::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size() + in_service_;
}

std::size_t MicroBatcher::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

}  // namespace ppgnn::serve
