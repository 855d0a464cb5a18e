#include "serve/admission_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace ppgnn::serve {

std::chrono::steady_clock::time_point effective_deadline(
    const SlackView& e, std::chrono::steady_clock::duration budget) {
  auto d = e.deadline;
  if (budget.count() > 0) {
    const auto aged = e.enqueued + budget;
    if (aged < d) d = aged;
  }
  return d;
}

std::size_t least_slack_index(const std::vector<SlackView>& entries,
                              std::chrono::steady_clock::duration budget) {
  std::size_t best = SIZE_MAX;
  std::chrono::steady_clock::time_point best_deadline{};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto d = effective_deadline(entries[i], budget);
    // Strict '<': ties keep the earliest index, i.e. the oldest entry
    // under FIFO enqueue order — so without explicit deadlines this IS
    // drop-head.
    if (best == SIZE_MAX || d < best_deadline) {
      best = i;
      best_deadline = d;
    }
  }
  return best;
}

AdmissionQueue::AdmissionQueue(const MicroBatchConfig& cfg) : cfg_(cfg) {
  if (cfg_.max_batch_size == 0 || cfg_.queue_capacity == 0) {
    throw std::invalid_argument("AdmissionQueue: zero batch size or capacity");
  }
}

void AdmissionQueue::push(ClassQueue& cq, Part&& p) {
  auto& q = cq.by_tenant[p.tenant];
  if (q.empty()) cq.sched.arm(p.tenant);
  q.push_back(std::move(p));
  ++cq.size;
}

AdmissionQueue::Tp AdmissionQueue::oldest_enqueued() const {
  // Sub-queues are FIFO per tenant, so the oldest part in a class is one
  // of the tenant fronts; either class can hold the oldest arrival.
  Tp oldest = Tp::max();
  for (const ClassQueue& cq : queues_) {
    for (const auto& [tenant, q] : cq.by_tenant) {
      (void)tenant;
      oldest = std::min(oldest, q.front().enqueued);
    }
  }
  return oldest;
}

AdmissionQueue::Tp AdmissionQueue::window_close() const {
  assert(!empty());
  return oldest_enqueued() + cfg_.max_delay;
}

bool AdmissionQueue::over_budget(Tp now) const {
  return !empty() && now - oldest_enqueued() > cfg_.shed_budget;
}

SlackView AdmissionQueue::slack_view(const Part& p) const {
  // FIFO baseline: order on age alone, so the least-slack pick degenerates
  // to the globally oldest part.
  return {p.enqueued, cfg_.deadline_aware ? p.deadline : Tp::max()};
}

AdmissionQueue::Tp AdmissionQueue::expiry(const Part& p) const {
  return effective_deadline(slack_view(p), cfg_.shed_budget);
}

void AdmissionQueue::recompute_low_expiry() {
  low_next_expiry_ = Tp::max();
  if (cfg_.shed_budget.count() <= 0) return;  // sweeps only shed with a budget
  for (const auto& [tenant, q] : low().by_tenant) {
    (void)tenant;
    for (const Part& p : q) {
      low_next_expiry_ = std::min(low_next_expiry_, expiry(p));
    }
  }
}

void AdmissionQueue::sweep_expired_low(Tp now, std::vector<Part>* victims) {
  if (now < low_next_expiry_) return;  // nothing can have expired yet
  ClassQueue& cq = low();
  for (auto qit = cq.by_tenant.begin(); qit != cq.by_tenant.end();) {
    // Without deadlines a tenant's expiries rise with enqueue order, so
    // this drops exactly that sub-queue's expired head run (drop-head).
    auto& q = qit->second;
    for (auto it = q.begin(); it != q.end();) {
      if (expiry(*it) < now) {
        --cq.size;
        victims->push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
    if (q.empty()) {
      cq.sched.disarm(qit->first);
      qit = cq.by_tenant.erase(qit);
    } else {
      ++qit;
    }
  }
  recompute_low_expiry();
}

void AdmissionQueue::evict_one_low(std::vector<Part>* victims) {
  ClassQueue& cq = low();
  assert(cq.size > 0);
  // Flatten every tenant sub-queue into one deterministic scan order
  // (tenant ascending, then FIFO position) and pick the victim GLOBALLY.
  // Picking from a single tenant's head — e.g. whichever tenant DWRR
  // would visit next — would evict parts that still have slack while a
  // doomed part sits in another tenant's queue; the slack policy must see
  // the whole class, exactly as it did when the class was one flat FIFO.
  std::vector<SlackView> views;
  std::vector<std::pair<std::uint32_t, std::size_t>> where;  // tenant, pos
  views.reserve(cq.size);
  where.reserve(cq.size);
  for (const auto& [tenant, q] : cq.by_tenant) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      views.push_back(slack_view(q[i]));
      where.emplace_back(tenant, i);
    }
  }
  const std::size_t victim = least_slack_index(views, cfg_.shed_budget);
  assert(victim < where.size());
#ifndef NDEBUG
  // The regression guard for the per-tenant refactor: the chosen victim's
  // effective deadline is the class-wide minimum, not just its own
  // tenant's.
  for (const SlackView& v : views) {
    assert(effective_deadline(views[victim], cfg_.shed_budget) <=
           effective_deadline(v, cfg_.shed_budget));
  }
#endif
  const auto [vt, vpos] = where[victim];
  auto qit = cq.by_tenant.find(vt);
  --cq.size;
  victims->push_back(std::move(qit->second[vpos]));
  qit->second.erase(qit->second.begin() + static_cast<std::ptrdiff_t>(vpos));
  if (qit->second.empty()) {
    cq.sched.disarm(vt);
    cq.by_tenant.erase(qit);
  }
  recompute_low_expiry();
}

RejectReason AdmissionQueue::admit(const Offer& o, Tp now,
                                   std::vector<Part>* victims) {
  const std::size_t cap = cfg_.queue_capacity;
  // A sub-batch that can never fit is a permanent overload refusal.
  if (o.n > cap) return RejectReason::kOverload;
  // Already blown (possibly while blocked for room): refusing here is the
  // cheapest shed there is — nothing was ever queued.
  if (cfg_.deadline_aware && o.deadline < now) return RejectReason::kDeadline;
  Priority cls = o.priority;
  if (cfg_.shed_budget.count() <= 0) {
    if (size() + o.n > cap) return RejectReason::kOverload;
    // One class regardless of priority (see the header): within it, parts
    // still land in per-tenant FIFOs so DWRR fair share applies.
    cls = Priority::kHigh;
  } else {
    sweep_expired_low(now, victims);
    // A full queue never turns away kHigh while kLow occupies it — but
    // only evict when the admission will actually succeed: if the head of
    // line is over budget, or the kLow queue cannot cover the whole
    // shortfall, the kHigh is about to be refused anyway and killing
    // servable kLow for it would waste both.
    if (cls == Priority::kHigh && !over_budget(now)) {
      const std::size_t after = size() + o.n;
      const std::size_t shortfall = after > cap ? after - cap : 0;
      if (shortfall > 0 && shortfall <= low().size) {
        while (size() + o.n > cap) evict_one_low(victims);
      }
    }
    if (over_budget(now) || size() + o.n > cap) {
      return RejectReason::kOverload;
    }
  }
  ClassQueue& cq = queues_[static_cast<std::size_t>(cls)];
  for (std::size_t i = 0; i < o.n; ++i) {
    const std::uint32_t slot = o.slots[i];
    Part p{(*o.nodes)[slot], slot, o.tenant, o.state, now, o.deadline};
    if (cls == Priority::kLow) {
      low_next_expiry_ = std::min(low_next_expiry_, expiry(p));
    }
    push(cq, std::move(p));
  }
  return RejectReason::kNone;
}

std::vector<AdmissionQueue::Part> AdmissionQueue::pop_batch(
    Tp now, std::vector<Part>* expired) {
  std::vector<Part> batch;
  batch.reserve(std::min(size(), cfg_.max_batch_size));
  const auto snap = cfg_.tenants ? cfg_.tenants->snapshot() : nullptr;
  const auto weight_of = [&snap](std::uint32_t t) {
    return snap ? snap->weight_of(t) : 1u;
  };
  const std::size_t low_before = low().size;
  // kHigh drains strictly first: under overload the sheddable class
  // waits, which is what makes its queue delay (and shedding) absorb the
  // excess.  Within a class a weight-2 tenant fills twice the batch slots
  // of a weight-1 peer when both are backlogged, and a lone tenant
  // degenerates to FIFO.
  for (ClassQueue& cq : queues_) {
    while (batch.size() < cfg_.max_batch_size && cq.size > 0) {
      const std::uint32_t t = cq.sched.next(weight_of);
      const auto it = cq.by_tenant.find(t);
      assert(it != cq.by_tenant.end() && !it->second.empty());
      Part p = std::move(it->second.front());
      it->second.pop_front();
      const bool emptied = it->second.empty();
      if (emptied) cq.by_tenant.erase(it);
      cq.sched.note_popped(t, emptied);
      --cq.size;
      if (cfg_.deadline_aware && p.deadline < now) {
        expired->push_back(std::move(p));  // never burns a batch slot
        continue;
      }
      batch.push_back(std::move(p));
    }
  }
  if (low().size != low_before) recompute_low_expiry();
  return batch;
}

}  // namespace ppgnn::serve
