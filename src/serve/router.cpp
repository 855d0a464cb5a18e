#include "serve/router.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace ppgnn::serve {

const char* policy_name(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kRoundRobin:
      return "round_robin";
    case RoutingPolicy::kLeastLoaded:
      return "least_loaded";
    case RoutingPolicy::kCacheAffinity:
      return "cache_affinity";
  }
  return "?";
}

bool parse_policy(const std::string& name, RoutingPolicy* out) {
  if (name == "round_robin") {
    *out = RoutingPolicy::kRoundRobin;
  } else if (name == "least_loaded") {
    *out = RoutingPolicy::kLeastLoaded;
  } else if (name == "cache_affinity") {
    *out = RoutingPolicy::kCacheAffinity;
  } else {
    return false;
  }
  return true;
}

std::uint64_t splitmix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

HashRing::HashRing(const std::vector<std::uint64_t>& member_generations)
    : num_members_(member_generations.size()) {
  points_.reserve(num_members_ * kVirtualNodes);
  for (std::size_t m = 0; m < num_members_; ++m) {
    // A member's points are a function of its generation id alone (vnode
    // index folded in via a second mix round), so they are identical in
    // every membership that contains the member — the resize-stability
    // invariant.
    const std::uint64_t g = member_generations[m];
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      const std::uint64_t point =
          splitmix64(splitmix64(g) ^ (0x517cc1b727220a95ULL * (v + 1)));
      points_.emplace_back(point, static_cast<std::uint32_t>(m));
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::lookup(std::int64_t node) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing::lookup on an empty ring");
  }
  const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(node));
  // First point clockwise (>= h), wrapping to the ring's start.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& p, std::uint64_t v) {
        return p.first < v;
      });
  if (it == points_.end()) it = points_.begin();
  return it->second;
}

namespace {

class RoundRobinRouter : public Router {
 public:
  std::size_t route(std::int64_t, const RouteTargets& t) override {
    return next_.fetch_add(1, std::memory_order_relaxed) % t.count;
  }
  RoutingPolicy policy() const override {
    return RoutingPolicy::kRoundRobin;
  }

 private:
  std::atomic<std::size_t> next_{0};
};

class LeastLoadedRouter : public Router {
 public:
  std::size_t route(std::int64_t, const RouteTargets& t) override {
    // Ties break to the lowest index; the scan is a snapshot, not a
    // transaction — two concurrent routes may pick the same replica, which
    // join-the-shortest-queue tolerates by construction.
    std::size_t best = 0;
    std::size_t best_depth = (*t.queue_depth)(0);
    for (std::size_t i = 1; i < t.count; ++i) {
      const std::size_t d = (*t.queue_depth)(i);
      if (d < best_depth) {
        best = i;
        best_depth = d;
      }
    }
    return best;
  }
  RoutingPolicy policy() const override {
    return RoutingPolicy::kLeastLoaded;
  }
};

class CacheAffinityRouter : public Router {
 public:
  std::size_t route(std::int64_t node, const RouteTargets& t) override {
    return t.ring->lookup(node);
  }
  RoutingPolicy policy() const override {
    return RoutingPolicy::kCacheAffinity;
  }
};

}  // namespace

std::unique_ptr<Router> make_router(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouter>();
    case RoutingPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouter>();
    case RoutingPolicy::kCacheAffinity:
      return std::make_unique<CacheAffinityRouter>();
  }
  throw std::invalid_argument("make_router: unknown policy");
}

std::vector<SubBatch> split_by_ring(const std::vector<std::int64_t>& nodes,
                                    const std::vector<std::uint32_t>& slots,
                                    const HashRing& ring) {
  std::vector<SubBatch> out;
  // Envelopes are small (a handful of nodes) and member counts are single
  // digits: a linear member scan beats a hash map here.
  for (const std::uint32_t slot : slots) {
    const std::size_t member = ring.lookup(nodes[slot]);
    SubBatch* group = nullptr;
    for (auto& g : out) {
      if (g.member == member) {
        group = &g;
        break;
      }
    }
    if (!group) {
      out.push_back(SubBatch{member, {}});
      group = &out.back();
    }
    group->slots.push_back(slot);
  }
  return out;
}

std::vector<SubBatch> route_envelope(Router& router,
                                     const std::vector<std::int64_t>& nodes,
                                     std::vector<std::uint32_t> slots,
                                     const RouteTargets& targets) {
  if (router.policy() == RoutingPolicy::kCacheAffinity && targets.count > 1) {
    return split_by_ring(nodes, slots, *targets.ring);
  }
  std::vector<SubBatch> out;
  out.push_back(SubBatch{router.route(nodes[slots[0]], targets),
                         std::move(slots)});
  return out;
}

}  // namespace ppgnn::serve
