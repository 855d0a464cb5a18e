// The SpMM ladder (graph/spmm.h, tensor/gemm_kernels.h): every arm this
// host can run must be BIT-IDENTICAL to the scalar oracle, memcmp on the
// output floats with no error bound, for spmm, spmm_rows (unsorted and
// repeated rows) and spmm_mean_rows, on weighted and unweighted graphs
// with degree-0 rows and self loops, at widths below, at and past every
// register and tile width, with inputs holding +-0, +-inf and the default
// NaN.  Each case runs on the 8-thread pool (pinned before main()) and
// on one thread.  precompute and precompute_multi, which call spmm, must
// give the same Preprocessed bytes on every arm.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/precompute.h"
#include "graph/csr.h"
#include "graph/spmm.h"
#include "tensor/cpu_features.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ppgnn::graph {
namespace {

const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "8", 0);
  return true;
}();

// The NaN x86 itself produces (0 * inf); with one NaN payload in play the
// bytes cannot depend on which operand of a multiply or add the compiler
// put first (docs/kernels.md).
const float kNaN = std::bit_cast<float>(std::uint32_t{0xFFC00000u});
const float kInf = std::numeric_limits<float>::infinity();

// Below, at and past one register (8 and 16 lanes) and one tile (32 and
// 64 columns), several full tiles, and full tiles plus a tail.
const std::size_t kWidths[] = {1,  7,  15, 16, 17, 31,  32,
                               33, 63, 64, 65, 100, 256, 300};

constexpr std::size_t kNodes = 700;

std::vector<Isa> runnable_arms() {
  std::vector<Isa> arms;
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    if (isa_supported(static_cast<Isa>(i))) arms.push_back(static_cast<Isa>(i));
  }
  return arms;
}

// Nested parallel_for calls inside a pool task run serially on the
// calling thread, so this is the one-thread pool.
template <class F>
void on_one_thread(F&& f) {
  global_pool().parallel_for(1, [&](std::size_t, std::size_t) { f(); });
}

// Runs f with `arm` forced, on the 8-thread pool or on one thread.
template <class F>
void run_on(Isa arm, bool one_thread, F&& f) {
  set_isa_override(arm);
  if (one_thread) {
    on_one_thread(f);
  } else {
    f();
  }
  clear_isa_override();
}

float special_or(float v, Rng& rng) {
  const float values[] = {0.f, -0.f, kInf, -kInf, kNaN};
  return rng.uniform() < 0.1 ? values[rng.uniform_int(5)] : v;
}

// A random graph with self loops on every fifth node and degree-0 nodes
// (every node divisible by 7 keeps no edge); weighted graphs carry random
// weights of both signs, and some exact zeros.
CsrGraph test_graph(bool weighted, bool special, Rng& rng) {
  std::vector<Edge> edges;
  for (std::size_t e = 0; e < kNodes * 6; ++e) {
    const auto u = static_cast<NodeId>(rng.uniform_int(kNodes));
    const auto v = static_cast<NodeId>(rng.uniform_int(kNodes));
    if (u % 7 != 0 && v % 7 != 0) edges.push_back({u, v});
  }
  for (NodeId v = 5; v < static_cast<NodeId>(kNodes); v += 5) {
    if (v % 7 != 0) edges.push_back({v, v});
  }
  CsrGraph g = build_csr(kNodes, std::move(edges), /*symmetrize=*/true);
  if (weighted) {
    std::vector<float>& w = g.mutable_values();
    w.resize(g.num_edges());
    for (float& x : w) {
      x = rng.uniform() < 0.05 ? 0.f : static_cast<float>(rng.uniform(-1, 1));
      if (special) x = special_or(x, rng);
    }
  }
  return g;
}

Tensor features(std::size_t f, bool special, Rng& rng) {
  Tensor x = Tensor::normal({kNodes, f}, rng, 0.f, 1.f);
  if (special) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = special_or(x[i], rng);
  }
  return x;
}

// Unsorted destination rows with repeats, a degree-0 node and a
// self-loop node among them.
std::vector<NodeId> test_rows(Rng& rng) {
  std::vector<NodeId> rows = {7, 5, static_cast<NodeId>(kNodes - 1), 0, 5, 13};
  for (int i = 0; i < 300; ++i) {
    rows.push_back(static_cast<NodeId>(rng.uniform_int(kNodes)));
  }
  return rows;
}

enum class Kernel { kSpmm, kRows, kMeanRows };

Tensor run_kernel(Kernel k, Isa arm, bool one_thread, const CsrGraph& g,
                  const std::vector<NodeId>& rows, const Tensor& x) {
  Tensor y({k == Kernel::kSpmm ? kNodes : rows.size(), x.cols()});
  run_on(arm, one_thread, [&] {
    switch (k) {
      case Kernel::kSpmm: spmm(g, x, y); break;
      case Kernel::kRows: spmm_rows(g, rows, x, y); break;
      case Kernel::kMeanRows: spmm_mean_rows(g, rows, x, y); break;
    }
  });
  return y;
}

void expect_same_bytes(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), want.bytes()), 0);
}

void check_graph(bool weighted, bool special, std::uint64_t seed) {
  Rng rng(seed);
  const CsrGraph g = test_graph(weighted, special, rng);
  const std::vector<NodeId> rows = test_rows(rng);
  for (const std::size_t f : kWidths) {
    const Tensor x = features(f, special, rng);
    for (const Kernel k : {Kernel::kSpmm, Kernel::kRows, Kernel::kMeanRows}) {
      const Tensor want = run_kernel(k, Isa::kScalar, false, g, rows, x);
      for (const Isa arm : runnable_arms()) {
        for (const bool one_thread : {false, true}) {
          SCOPED_TRACE(std::string(isa_name(arm)) +
                       (one_thread ? " 1" : " 8") + " threads f=" +
                       std::to_string(f) + " kernel=" +
                       std::to_string(static_cast<int>(k)));
          expect_same_bytes(run_kernel(k, arm, one_thread, g, rows, x), want);
        }
      }
    }
  }
}

TEST(SpmmLadder, PoolIsPinned) {
  ASSERT_TRUE(g_pool_pinned);
  if (::getenv("PPGNN_NUM_THREADS") == std::string("8")) {
    EXPECT_EQ(global_pool().size(), 8u);
  }
}

TEST(SpmmLadder, TestGraphHasDegreeZeroRowsAndSelfLoops) {
  Rng rng(1);
  const CsrGraph g = test_graph(false, false, rng);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.degree(7), 0);
  EXPECT_TRUE(g.has_edge(5, 5));
}

TEST(SpmmLadder, UnweightedFiniteIsBitIdentical) {
  check_graph(false, false, 2);
}
TEST(SpmmLadder, UnweightedSpecialIsBitIdentical) {
  check_graph(false, true, 3);
}
TEST(SpmmLadder, WeightedFiniteIsBitIdentical) { check_graph(true, false, 4); }
TEST(SpmmLadder, WeightedSpecialIsBitIdentical) { check_graph(true, true, 5); }

void expect_same_preprocessed(const core::Preprocessed& got,
                              const core::Preprocessed& want) {
  ASSERT_EQ(got.hop_features.size(), want.hop_features.size());
  for (std::size_t h = 0; h < want.hop_features.size(); ++h) {
    SCOPED_TRACE("hop " + std::to_string(h));
    expect_same_bytes(got.hop_features[h], want.hop_features[h]);
  }
}

TEST(SpmmLadder, PrecomputeIsBitIdenticalForEveryOperator) {
  Rng rng(6);
  const CsrGraph g = test_graph(false, false, rng);
  const Tensor x = features(100, false, rng);
  std::vector<core::PrecomputeConfig> all;
  for (const core::OperatorKind op :
       {core::OperatorKind::kSymNorm, core::OperatorKind::kRowNorm,
        core::OperatorKind::kPpr, core::OperatorKind::kHeat}) {
    core::PrecomputeConfig cfg;
    cfg.op = op;
    cfg.hops = 3;
    all.push_back(cfg);
    core::Preprocessed want;
    run_on(Isa::kScalar, false, [&] { want = core::precompute(g, x, cfg); });
    for (const Isa arm : runnable_arms()) {
      for (const bool one_thread : {false, true}) {
        SCOPED_TRACE(std::string(isa_name(arm)) + (one_thread ? " 1" : " 8") +
                     " threads " + core::to_string(op));
        core::Preprocessed got;
        run_on(arm, one_thread, [&] { got = core::precompute(g, x, cfg); });
        expect_same_preprocessed(got, want);
      }
    }
  }
  core::Preprocessed want;
  run_on(Isa::kScalar, false,
         [&] { want = core::precompute_multi(g, x, all); });
  for (const Isa arm : runnable_arms()) {
    SCOPED_TRACE(std::string(isa_name(arm)) + " precompute_multi");
    core::Preprocessed got;
    run_on(arm, false, [&] { got = core::precompute_multi(g, x, all); });
    expect_same_preprocessed(got, want);
  }
}

}  // namespace
}  // namespace ppgnn::graph
