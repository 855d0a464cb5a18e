// Multi-tenant serving contracts: who a request belongs to and what that
// tenant is entitled to.
//
// The serving tier has carried a tenant id through its trace format and
// workload generator since the trace work landed, but the id never meant
// anything: every caller shared one anonymous FIFO and one admission
// budget, so a single aggressive caller could starve everyone else — the
// exact failure DL2-style shared ML infrastructure exists to prevent.
// This subsystem turns the id into an enforceable contract:
//
//  * TenantContract — the per-tenant SLO knobs: an admitted-rate quota
//    with a burst allowance (enforced by the token buckets in
//    admission.h), a fair-share weight (consumed by the DWRR scheduler in
//    fair_share.h), a default deadline budget stamped onto requests that
//    carry none, and a priority ceiling that caps how urgent the tenant's
//    traffic may claim to be.
//
//  * TenantRegistry — the contract table, published as an immutable
//    epoch-versioned snapshot exactly like FleetManager's membership
//    (replica_set.h): readers take one atomic shared_ptr load and never a
//    lock, writers publish a whole new snapshot.  A contract flip
//    mid-storm is therefore safe by construction — in-flight submits keep
//    the snapshot they loaded, the next submit sees the new one, and no
//    envelope is ever lost to the transition (test_tenancy hammers this).
//
// The registry deliberately knows nothing about buckets or queues: it is
// the read-mostly policy table, and the stateful enforcement (bucket
// levels, DWRR deficits) lives with the components that mutate per
// arrival.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/clock.h"
#include "serve/serve_api.h"

namespace ppgnn::tenancy {

// Tenant ids are dense small integers chosen by the deployment (CLI flag,
// config file).  Id 0 is the default tenant: requests that never set one
// land there, so an untenanted deployment behaves exactly as before.
using TenantId = std::uint32_t;

struct TenantContract {
  // Admitted-parts-per-second quota (an n-node envelope costs n tokens).
  // 0 = unmetered: the tenant is never quota-refused.
  double rate_per_s = 0;
  // Bucket capacity in parts — how far the tenant may burst above its
  // sustained rate.  0 defaults to max(rate_per_s, 1): one second of
  // quota, the conventional bucket depth.
  double burst = 0;
  // DWRR fair-share weight: a weight-2 tenant drains twice the parts per
  // scheduling round of a weight-1 tenant when both are backlogged.
  // Clamped to >= 1 (a zero weight would starve the ring).
  std::uint32_t weight = 1;
  // Stamped onto admitted requests that carry no explicit deadline
  // (0 = leave them deadline-free).  Relative budget, microseconds.
  std::uint64_t default_deadline_us = 0;
  // Highest priority class the tenant may submit at; a request claiming
  // better is clamped down to this.  kHigh (the default) allows both.
  serve::Priority priority_ceiling = serve::Priority::kHigh;

  double effective_burst() const {
    if (burst > 0) return burst;
    return rate_per_s > 1.0 ? rate_per_s : 1.0;
  }
};

class TenantRegistry {
 public:
  // One immutable published generation of the contract table.  `of()` is
  // the hot-path lookup: contracts map misses fall back to the default
  // contract, so a registry with no explicit entries still serves every
  // tenant (unmetered, weight 1 — the pre-tenancy behavior).
  struct Snapshot {
    std::uint64_t epoch = 0;
    // std::map, not unordered: snapshot iteration order (stats tables,
    // fleetsim per-tenant slices) is deterministic by tenant id.
    std::map<TenantId, TenantContract> contracts;
    TenantContract default_contract;

    const TenantContract& of(TenantId t) const {
      const auto it = contracts.find(t);
      return it == contracts.end() ? default_contract : it->second;
    }
    std::uint32_t weight_of(TenantId t) const {
      const std::uint32_t w = of(t).weight;
      return w == 0 ? 1 : w;
    }
  };

  TenantRegistry() {
    std::atomic_store(&snapshot_, std::make_shared<const Snapshot>());
  }

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Hot path: one atomic load, no lock (same atomic_load/atomic_store free
  // functions as fleet membership — see replica_set.h for why these beat
  // std::atomic<std::shared_ptr> under TSan).
  std::shared_ptr<const Snapshot> snapshot() const {
    return std::atomic_load(&snapshot_);
  }

  std::uint64_t epoch() const { return snapshot()->epoch; }

  // Writers: copy-on-write under a writer lock, publish atomically.
  void set_contract(TenantId t, const TenantContract& c) {
    mutate([&](Snapshot& s) { s.contracts[t] = c; });
  }
  void erase_contract(TenantId t) {
    mutate([&](Snapshot& s) { s.contracts.erase(t); });
  }
  void set_default(const TenantContract& c) {
    mutate([&](Snapshot& s) { s.default_contract = c; });
  }

 private:
  template <typename Fn>
  void mutate(Fn&& fn) {
    std::lock_guard<std::mutex> lk(write_mu_);
    auto next = std::make_shared<Snapshot>(*std::atomic_load(&snapshot_));
    next->epoch += 1;
    fn(*next);
    std::atomic_store(&snapshot_,
                      std::shared_ptr<const Snapshot>(std::move(next)));
  }

  std::shared_ptr<const Snapshot> snapshot_;
  std::mutex write_mu_;  // serializes writers; readers never touch it
};

// The contract's rewrites of an arriving request at the fleet front, before
// its token bucket is charged: the claimed priority is clamped to the
// tenant's ceiling, and a request without a deadline (max()) gets the
// contract's default one, counted from `clock`'s now.  FleetManager::submit
// and the fleet simulator's arrivals both go through this.
void apply_contract(const TenantContract& c, const serve::Clock& clock,
                    serve::Priority* priority,
                    std::chrono::steady_clock::time_point* deadline);

// CLI glue (serve_cli --tenant-mix, fleetsim_cli): parse a comma-separated
// weight list "2,1,1,1" — tenant i gets weight list[i % size], so a short
// list tiles across --tenants N.  Empty spec → all weights 1.  False (with
// *err) on malformed input; weights are clamped to >= 1.
bool parse_tenant_mix(const std::string& spec,
                      std::vector<std::uint32_t>* weights, std::string* err);

// One-line human-readable contract ("rate=100/s burst=200 weight=2
// deadline=50ms ceiling=high") for stats blocks and the tenancy runbook.
std::string describe(const TenantContract& c);

}  // namespace ppgnn::tenancy
