// Deficit-weighted round-robin (DWRR) tenant scheduling.
//
// DwrrScheduler decides WHICH tenant's sub-queue the next micro-batch
// part comes from; it never touches the parts themselves.  AdmissionQueue
// (serve/admission_queue.h) keeps one sub-queue per tenant per priority
// class and consults a scheduler instance per class.  MicroBatcher and
// fleetsim both drive that one queue class, which is how threaded serving
// and single-threaded replay stay bit-identical in their batch
// composition.
//
// The discipline is classic DWRR with a unit part cost: each active
// tenant sits in an activation-ordered ring; when the cursor lands on a
// tenant for a new round visit, the tenant's deficit grows by
// quantum × weight (quantum = 1.0, cost = 1.0 per part), and the tenant
// may emit parts until the deficit drops below one part.  A weight-2
// tenant therefore drains two parts per visit to a weight-1 tenant's one
// — 2:1 admitted throughput when both are backlogged, exact and
// integer-valued (all deficit arithmetic stays on whole doubles, so runs
// are reproducible to the bit).  A single active tenant degenerates to
// plain FIFO: existing single-tenant ordering tests hold unchanged.
//
// Fairness ranks BELOW deadlines by design: AdmissionQueue sheds and
// evicts on slack before the scheduler ever sees the queue, so DWRR only
// arbitrates among parts that are all still worth serving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "tenancy/tenant.h"

namespace ppgnn::tenancy {

class DwrrScheduler {
 public:
  // A tenant whose sub-queue just went non-empty enters the ring at the
  // back with a zero deficit (no credit survives an idle period — an idle
  // tenant cannot bank quantum to burst later).  No-op if already armed.
  void arm(TenantId t);

  // Pick the tenant that owns the next part.  `weight_of` maps tenant →
  // weight (>= 1; zero is treated as one).  Must only be called when at
  // least one tenant is armed.  Does not consume — call note_popped()
  // after actually dequeuing a part.
  template <typename WeightFn>
  TenantId next(WeightFn&& weight_of) {
    for (;;) {
      const TenantId t = ring_[cursor_];
      if (!charged_) {
        std::uint32_t w = weight_of(t);
        if (w == 0) w = 1;
        deficit_[t] += static_cast<double>(w);  // quantum 1.0 × weight
        charged_ = true;
      }
      if (deficit_[t] >= 1.0) return t;
      cursor_ = (cursor_ + 1) % ring_.size();
      charged_ = false;
      // Terminates: every visit charges >= 1.0, so the next lap over this
      // tenant returns it even from a zero deficit.
    }
  }

  // One part was dequeued from `t` (cost 1.0).  `now_empty` disarms the
  // tenant when its sub-queue drained.
  void note_popped(TenantId t, bool now_empty);

  // Remove a tenant from the ring (queue drained or parts evicted away).
  // Its deficit is forgotten; reactivation starts from zero.
  void disarm(TenantId t);

  bool empty() const { return ring_.empty(); }
  std::size_t active_tenants() const { return ring_.size(); }

  void clear();

 private:
  std::deque<TenantId> ring_;  // activation order
  std::map<TenantId, double> deficit_;
  std::size_t cursor_ = 0;
  // Whether the tenant currently under the cursor already received this
  // visit's quantum (so re-entering next() mid-visit doesn't double-pay).
  bool charged_ = false;
};

}  // namespace ppgnn::tenancy
