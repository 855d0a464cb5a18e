// The fp32 GEMM ladder (tensor/ops.h, tensor/gemm_kernels.h): every arm
// this host can run must be BIT-IDENTICAL to the scalar oracle — memcmp
// on the output floats, no error bound — in all four transpose cases,
// with alpha and beta each in {0, 1, other}, column and inner-dimension
// tails that are not multiples of 16 or 8, a shape at the work floor
// that splits a GEMM across the pool, and inputs holding +0, -0, +-inf
// and NaN.  Each case runs on the 8-thread pool (pinned before main())
// and on one thread.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/cpu_features.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ppgnn {
namespace {

const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "8", 0);
  return true;
}();

// The NaN x86 itself produces (0 * inf, inf - inf).  When both operands
// of a multiply or add are NaN, x86 returns the first one, and the
// compiler orders the operands of those commutative operations as it
// likes, in the oracle as in the arms; with one NaN payload in play the
// bytes cannot depend on that order (see ForeignNaNPayloadsStayNaN).
const float kNaN = std::bit_cast<float>(std::uint32_t{0xFFC00000u});
const float kInf = std::numeric_limits<float>::infinity();

struct Shape {
  std::size_t m, k, n;
};

// Tails below, at and past every vector width; n = 65 and 130 span two
// and three AVX-512 column tiles.  Columns that fit one register take
// 8-row tiles: m = 13, 22 and 31 end in a 4-row tile and then single
// rows.  SGC's forward (NN) and dW (TN) shapes run as themselves.  The
// last two reach the 2^23 multiply-add floor, so the wide arms split them
// across the pool (the scalar oracle splits every shape from 5 rows up);
// m = 4100 gives the 8-thread pool row ranges that are not multiples of 8.
const Shape kShapes[] = {
    {1, 1, 1},       {3, 7, 5},        {5, 17, 63},     {17, 33, 65},
    {9, 31, 130},    {33, 8, 16},      {6, 13, 8},      {4, 1, 24},
    {13, 9, 16},     {22, 40, 7},      {31, 5, 12},     {263, 96, 45},
    {70, 300, 53},   {1024, 64, 16},   {1024, 256, 16}, {256, 1024, 16},
    {1024, 128, 64}, {4100, 128, 16},
};

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

Tensor run_gemm(Isa arm, bool one_thread, const Tensor& a, bool ta,
                const Tensor& b, bool tb, const Tensor& c0, float alpha,
                float beta) {
  set_isa_override(arm);
  Tensor c = c0;
  if (one_thread) {
    on_one_thread([&] { gemm(a, ta, b, tb, c, alpha, beta); });
  } else {
    gemm(a, ta, b, tb, c, alpha, beta);
  }
  clear_isa_override();
  return c;
}

Tensor random_matrix(std::size_t r, std::size_t c, Rng& rng, bool special) {
  Tensor t = Tensor::normal({r, c}, rng, 0.f, 1.f);
  if (!special) return t;
  const float values[] = {0.f, -0.f, kInf, -kInf, kNaN};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng.uniform() < 0.12) t[i] = values[rng.uniform_int(5)];
  }
  if (r > 2) {
    for (std::size_t j = 0; j < c; ++j) t.at(1, j) = 0.f;  // a zero row
  }
  return t;
}

// Every runnable arm against the scalar oracle on one input set, for all
// alpha x beta combinations and both pool sizes.
void check_case(const Shape& s, bool ta, bool tb, bool special, Rng& rng) {
  const Tensor a = ta ? random_matrix(s.k, s.m, rng, special)
                      : random_matrix(s.m, s.k, rng, special);
  const Tensor b = tb ? random_matrix(s.n, s.k, rng, special)
                      : random_matrix(s.k, s.n, rng, special);
  const Tensor c0 = random_matrix(s.m, s.n, rng, special);
  for (const float alpha : {0.f, 1.f, -0.75f}) {
    for (const float beta : {0.f, 1.f, 1.5f}) {
      const Tensor want =
          run_gemm(Isa::kScalar, false, a, ta, b, tb, c0, alpha, beta);
      for (const Isa arm : runnable_arms()) {
        for (const bool one_thread : {false, true}) {
          SCOPED_TRACE(std::string(isa_name(arm)) + (one_thread ? " 1" : " 8") +
                       " threads m=" + std::to_string(s.m) +
                       " k=" + std::to_string(s.k) +
                       " n=" + std::to_string(s.n) + " ta=" +
                       std::to_string(ta) + " tb=" + std::to_string(tb) +
                       " alpha=" + std::to_string(alpha) +
                       " beta=" + std::to_string(beta) +
                       (special ? " special" : ""));
          const Tensor got =
              run_gemm(arm, one_thread, a, ta, b, tb, c0, alpha, beta);
          ASSERT_EQ(got.shape(), want.shape());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), want.bytes()), 0);
        }
      }
    }
  }
}

TEST(GemmLadder, PoolIsPinned) {
  ASSERT_TRUE(g_pool_pinned);
  if (::getenv("PPGNN_NUM_THREADS") == std::string("8")) {
    EXPECT_EQ(global_pool().size(), 8u);
  }
}

TEST(GemmLadder, ArmFollowsTheIsaLadder) {
  set_isa_override(Isa::kScalar);
  EXPECT_STREQ(gemm_f32_arm(), "scalar");
  set_isa_override(Isa::kSse2);
  EXPECT_STREQ(gemm_f32_arm(), "scalar");
  if (isa_supported(Isa::kAvx2)) {
    set_isa_override(Isa::kAvx2);
    EXPECT_STREQ(gemm_f32_arm(), "avx2");
  }
  if (isa_supported(Isa::kAvx512Vnni)) {
    set_isa_override(Isa::kAvx512Vnni);
    EXPECT_STREQ(gemm_f32_arm(), "avx512");
  }
  clear_isa_override();
}

class GemmLadderCase
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(GemmLadderCase, EveryArmIsBitIdenticalToScalar) {
  const auto [ta, tb, special] = GetParam();
  Rng rng(100 + 4 * ta + 2 * tb + special);
  for (const Shape& s : kShapes) check_case(s, ta, tb, special, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Transposes, GemmLadderCase,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "T" : "N") +
             (std::get<1>(info.param) ? "T" : "N") +
             (std::get<2>(info.param) ? "_special" : "_finite");
    });

TEST(GemmLadder, ForeignNaNPayloadsStayNaN) {
  // Quiet NaNs of both signs: which payload survives when two NaNs meet
  // is the compiler's operand order, but NaN-ness is not, and every other
  // output keeps its bytes.
  Rng rng(7);
  Tensor a = Tensor::normal({37, 29}, rng), b = Tensor::normal({29, 41}, rng);
  const float q = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = 0; i < a.size(); i += 11) a[i] = (i % 2) ? q : -q;
  for (std::size_t i = 0; i < b.size(); i += 13) b[i] = (i % 2) ? -q : kInf;
  const Tensor c0({37, 41});
  const Tensor want = run_gemm(Isa::kScalar, false, a, false, b, false, c0,
                               1.f, 0.f);
  for (const Isa arm : runnable_arms()) {
    const Tensor got = run_gemm(arm, false, a, false, b, false, c0, 1.f, 0.f);
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::isnan(want[i])) {
        EXPECT_TRUE(std::isnan(got[i])) << isa_name(arm) << " at " << i;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << isa_name(arm) << " at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ppgnn
