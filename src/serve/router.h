// Request routing across InferenceSession replicas — resize-stable.
//
// A FleetManager holds a *dynamic* set of serving pipelines; the router
// decides, per request, which one answers.  Because membership now changes
// at runtime (autoscaling spawns and retires replicas), every policy routes
// over a RouteTargets view of one membership snapshot rather than a count
// fixed at construction.  Three policies, in increasing awareness of the
// system they route over:
//
//  * round_robin — cycles replicas.  Load-oblivious, perfectly fair over
//    any window of N requests; the right default when replicas are
//    symmetric and requests are i.i.d. cheap.  The shared counter is modded
//    by the *snapshot's* size, so a resize just changes the cycle length.
//
//  * least_loaded — shortest queue first (join-the-shortest-queue).  Reads
//    each replica's live queue depth at routing time, so a replica stuck
//    on a slow batch (cold cache, page-cache miss) stops receiving new
//    work until it drains.  A freshly spawned (cache-cold) replica simply
//    joins the scan.
//
//  * cache_affinity — consistent hashing over a HashRing.  PR 2 used
//    splitmix64(node) mod N, which is perfectly sharded but resize-hostile:
//    going N -> N+1 remaps ~N/(N+1) of the key space, flushing every
//    replica's carefully specialized cache exactly when the fleet is under
//    enough load to need a new replica.  The ring fixes the failure mode:
//    each replica owns kVirtualNodes pseudo-random points on a 64-bit
//    circle (a pure function of its *generation id*, so surviving replicas'
//    points never move), a key routes to the owner of the first point
//    clockwise of its hash, and adding one replica steals only the arcs
//    its own points land on — E[remapped keys] = 1/(N+1), asserted
//    <= 1.5/(N+1) in test_autoscale.
//
// Policies are deliberately stateless about the replicas themselves (the
// snapshot view is passed in per call), so a Router is cheap, lock-free
// where possible, and trivially testable without standing up sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ppgnn::serve {

enum class RoutingPolicy { kRoundRobin, kLeastLoaded, kCacheAffinity };

const char* policy_name(RoutingPolicy p);
// Parses "round_robin" | "least_loaded" | "cache_affinity"; returns false
// (leaving *out untouched) on anything else.
bool parse_policy(const std::string& name, RoutingPolicy* out);

// splitmix64 finalizer: node ids are often dense/sequential, and a plain
// mod would stripe adjacent ids across replicas — the opposite of a stable
// shard.  The mix decorrelates placement from id locality (node popularity
// is already uncorrelated with id order, see workload.h).  Deterministic
// across processes and runs; both the ring's virtual-node points and the
// key -> point mapping are built on it.
std::uint64_t splitmix64(std::uint64_t x);

// Consistent-hash ring over replica *generation ids*.  Members are placed
// at kVirtualNodes pseudo-random points each; lookup(node) returns the
// index (into the member order given at construction) of the member owning
// the first point clockwise of splitmix64(node).  Because a member's
// points depend only on its generation id, growing or shrinking the fleet
// leaves every surviving member's points fixed — the resize-stability the
// cache_affinity policy needs.
class HashRing {
 public:
  // Virtual nodes per member: enough that each member's total arc length
  // concentrates near 1/N (relative spread ~ 1/sqrt(kVirtualNodes)), few
  // enough that rebuilding a ring at a membership swap stays trivial.
  static constexpr std::size_t kVirtualNodes = 128;

  HashRing() = default;
  explicit HashRing(const std::vector<std::uint64_t>& member_generations);

  bool empty() const { return points_.empty(); }
  std::size_t num_members() const { return num_members_; }
  // Index into the construction-time member order; ring must be non-empty.
  std::size_t lookup(std::int64_t node) const;

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;  // sorted
  std::size_t num_members_ = 0;
};

// Live per-replica load signal: queue_depth(i) is replica i's count of
// admitted-but-undispatched requests.
using QueueDepthFn = std::function<std::size_t(std::size_t)>;

// One membership snapshot, as the router sees it: how many replicas, their
// live queue depths, and the snapshot's ring (non-null whenever the fleet
// maintains one; required by cache_affinity).
struct RouteTargets {
  std::size_t count = 0;
  const QueueDepthFn* queue_depth = nullptr;  // required by least_loaded
  const HashRing* ring = nullptr;             // required by cache_affinity
};

class Router {
 public:
  virtual ~Router() = default;
  // Picks the replica in [0, targets.count) for `node`.  Must be safe to
  // call from multiple client threads, against different snapshots.
  virtual std::size_t route(std::int64_t node, const RouteTargets& t) = 0;
  virtual RoutingPolicy policy() const = 0;
  const char* name() const { return policy_name(policy()); }
};

std::unique_ptr<Router> make_router(RoutingPolicy p);

// One replica's share of a multi-node envelope: the member index and the
// slots (indices into ServeRequest::nodes) it answers.
struct SubBatch {
  std::size_t member = 0;
  std::vector<std::uint32_t> slots;
};

// Splits an envelope's nodes into ring-consistent sub-batches: slot s in
// `slots` goes to ring.lookup(nodes[s]), so every node of a v2 request
// still lands on its cache_affinity home even when the request spans
// shards — the split half of the serving API's multi-node split/merge.
// `slots` is the subset still to place (the full envelope on first
// placement; the bounced remainder after a draining re-route).  Sub-batches
// come back in first-touched member order with slots in input order, a
// pure function of (nodes, slots, ring) — deterministic, so envelope
// answers are too.
std::vector<SubBatch> split_by_ring(const std::vector<std::int64_t>& nodes,
                                    const std::vector<std::uint32_t>& slots,
                                    const HashRing& ring);

// The fleet's placement of one envelope's still-unplaced `slots` over one
// membership snapshot.  Under cache_affinity with more than one member the
// ring splits the envelope (split_by_ring), so every node keeps its cache
// home; otherwise `router` makes one decision, on the first slot's node,
// for the whole envelope — splitting load-oblivious traffic would only
// multiply dispatch overhead without a cache to aim at.  FleetManager and
// the fleet simulator both place envelopes through this.
std::vector<SubBatch> route_envelope(Router& router,
                                     const std::vector<std::int64_t>& nodes,
                                     std::vector<std::uint32_t> slots,
                                     const RouteTargets& targets);

}  // namespace ppgnn::serve
