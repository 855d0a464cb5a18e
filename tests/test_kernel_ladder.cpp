// The INT8 GEMM kernel ladder (tensor/cpu_features.h, tensor/quant.h):
// every arm this host can run must be BIT-IDENTICAL to the scalar oracle
// — memcmp on the output floats, no error bound — across odd inner
// dimensions, sub-vector-width output tails, zero rows, asymmetric
// activation offsets, and an 8-thread pool configured before main() (the
// int8 GEMM runs on its caller's thread, so this guards that no pool size
// changes the bytes).
// Plus the dispatch contract: PPGNN_ISA / set_isa_override force any
// arm, forcing an unsupported arm degrades and never crashes, and a
// matrix carries exactly one kernel layout (the scratch-halving point).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/cpu_features.h"
#include "tensor/parallel.h"
#include "tensor/quant.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ppgnn {
namespace {

// Pin the pool to 8 workers before anything touches global_pool().  The
// int8 GEMM never splits across the pool, so the pin guards that a pool
// of any size, 8 here, leaves every arm's bytes alone.  setenv with
// overwrite=0 keeps an explicit outer PPGNN_NUM_THREADS in charge.
const bool g_pool_pinned = [] {
  ::setenv("PPGNN_NUM_THREADS", "8", 0);
  return true;
}();

struct Shape {
  std::size_t m, k, n;
};

// Odd k (pair/quad padding), n below / at / just past every vector width
// (scalar tails inside the SIMD arms), and the serving testbed's first
// Linear (255 x 96 -> 32, the acceptance shape).
const Shape kShapes[] = {
    {1, 1, 1},    {3, 7, 5},     {5, 5, 63},   {17, 33, 65}, {2, 64, 48},
    {9, 31, 17},  {4, 16, 1},    {7, 1, 3},    {8, 96, 32},  {255, 96, 32},
    {6, 13, 16},  {11, 2, 33},
};

std::vector<Isa> runnable_arms() {
  std::vector<Isa> arms;
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) arms.push_back(isa);
  }
  return arms;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.rows() * want.cols() * sizeof(float)),
            0)
      << what;
}

// Runs the activation-encoded gemm with the weights packed for `arm`
// against the scalar-packed oracle, on identical inputs.
void check_arm_vs_scalar(const Tensor& x, const Tensor& w, const Tensor* bias,
                         Isa arm) {
  const QuantizedActs xq = quantize_acts_per_row(x);
  const QuantizedMatrix wq_arm = quantize_per_row(w, arm);
  const QuantizedMatrix wq_ref = quantize_per_row(w, Isa::kScalar);
  Tensor got, want;
  gemm_s8_nt(xq, wq_arm, got, bias);
  gemm_s8_nt(xq, wq_ref, want, bias);
  expect_bitwise_equal(got, want, isa_name(arm));
}

// --- Probe / parse / resolve ----------------------------------------------

TEST(KernelLadder, IsaNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa isa = static_cast<Isa>(i);
    Isa back = Isa::kScalar;
    ASSERT_TRUE(parse_isa(isa_name(isa), &back)) << isa_name(isa);
    EXPECT_EQ(back, isa);
  }
  Isa out = Isa::kSse2;
  EXPECT_FALSE(parse_isa("avx9000", &out));
  EXPECT_EQ(out, Isa::kSse2);  // untouched on failure
  EXPECT_FALSE(parse_isa("", &out));
}

TEST(KernelLadder, ScalarAlwaysRunsAndSupportImpliesCompiled) {
  EXPECT_TRUE(isa_compiled(Isa::kScalar));
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) EXPECT_TRUE(isa_compiled(isa)) << isa_name(isa);
  }
}

TEST(KernelLadder, ResolveDegradesDownTheLadderNeverUp) {
  const Isa best = best_supported_isa();
  EXPECT_TRUE(isa_supported(best));
  EXPECT_EQ(resolve_isa(best), best);
  EXPECT_EQ(resolve_isa(Isa::kScalar), Isa::kScalar);
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa req = static_cast<Isa>(i);
    const Isa got = resolve_isa(req);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(req)) << isa_name(req);
    EXPECT_TRUE(isa_supported(got)) << isa_name(req);
    // Nothing supported strictly between got and req was skipped over.
    for (int j = static_cast<int>(got) + 1; j <= static_cast<int>(req); ++j) {
      EXPECT_FALSE(isa_supported(static_cast<Isa>(j))) << isa_name(req);
    }
  }
}

TEST(KernelLadder, OverrideForcesArmAndClearRestoresEnvDefault) {
  for (const Isa arm : runnable_arms()) {
    set_isa_override(arm);
    EXPECT_EQ(active_isa(), arm);
  }
  // Forcing an arm the host lacks resolves downward instead of sticking.
  set_isa_override(Isa::kAvx512Vnni);
  EXPECT_EQ(active_isa(), resolve_isa(Isa::kAvx512Vnni));
  clear_isa_override();
  // With no PPGNN_ISA in scope the default is the widest supported arm.
  if (::getenv("PPGNN_ISA") == nullptr) {
    EXPECT_EQ(active_isa(), best_supported_isa());
  }
}

TEST(KernelLadder, EnvVariableForcesArm) {
  char* prior = ::getenv("PPGNN_ISA");
  const std::string saved = prior ? prior : "";
  ::setenv("PPGNN_ISA", "scalar", 1);
  clear_isa_override();  // re-derive from the environment
  EXPECT_EQ(active_isa(), Isa::kScalar);
  ::setenv("PPGNN_ISA", "avx512vnni", 1);
  clear_isa_override();
  EXPECT_EQ(active_isa(), resolve_isa(Isa::kAvx512Vnni));
  if (prior) {
    ::setenv("PPGNN_ISA", saved.c_str(), 1);
  } else {
    ::unsetenv("PPGNN_ISA");
  }
  clear_isa_override();
}

// --- Layout construction ---------------------------------------------------

TEST(KernelLadder, ExactlyOneLayoutPerMatrix) {
  Rng rng(11);
  const Tensor w = Tensor::normal({32, 96}, rng, 0.f, 1.f);

  const QuantizedMatrix scalar = quantize_per_row(w, Isa::kScalar);
  EXPECT_TRUE(scalar.packed.empty());
  EXPECT_TRUE(scalar.packed_quad.empty());
  EXPECT_EQ(scalar.scratch_bytes(), 0u);

  const QuantizedMatrix pair = quantize_per_row(w, Isa::kAvx2);
  EXPECT_EQ(pair.packed_for, Isa::kAvx2);
  EXPECT_FALSE(pair.packed.empty());
  EXPECT_TRUE(pair.packed_quad.empty());
  // Pair-pack: two int16 bytes per element -> 2x the int8 payload.
  EXPECT_EQ(pair.scratch_bytes(), 2 * 32 * 96u);

  const QuantizedMatrix quad = quantize_per_row(w, Isa::kAvx512Vnni);
  EXPECT_EQ(quad.packed_for, Isa::kAvx512Vnni);
  EXPECT_TRUE(quad.packed.empty());
  EXPECT_FALSE(quad.packed_quad.empty());
  // Quad-pack: one byte per element — half the pair layout's residency.
  EXPECT_EQ(quad.scratch_bytes(), 32 * 96u);
  EXPECT_EQ(quad.scratch_bytes() * 2, pair.scratch_bytes());

  // The payload + scales footprint (the checkpoint-facing number) is
  // identical no matter which arm the scratch was packed for.
  EXPECT_EQ(scalar.bytes(), pair.bytes());
  EXPECT_EQ(scalar.bytes(), quad.bytes());
}

TEST(KernelLadder, DefaultQuantizePacksForActiveIsa) {
  Rng rng(12);
  const Tensor w = Tensor::normal({16, 24}, rng, 0.f, 1.f);
  for (const Isa arm : runnable_arms()) {
    set_isa_override(arm);
    const QuantizedMatrix q = quantize_per_row(w);
    EXPECT_EQ(q.packed_for, arm);
    EXPECT_EQ(gemm_dispatch_arm(q), arm);
  }
  clear_isa_override();
}

// --- Bit identity ----------------------------------------------------------

TEST(KernelLadder, AllArmsBitIdenticalToScalarAcrossShapes) {
  Rng rng(21);
  for (const Isa arm : runnable_arms()) {
    if (arm == Isa::kScalar) continue;
    for (const Shape& s : kShapes) {
      SCOPED_TRACE(std::string(isa_name(arm)) + " m=" + std::to_string(s.m) +
                   " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n));
      const Tensor x = Tensor::normal({s.m, s.k}, rng, 0.3f, 1.5f);
      const Tensor w = Tensor::normal({s.n, s.k}, rng, 0.f, 0.8f);
      const Tensor bias = Tensor::normal({s.n}, rng, 0.f, 0.5f);
      check_arm_vs_scalar(x, w, &bias, arm);
      check_arm_vs_scalar(x, w, nullptr, arm);
    }
  }
}

TEST(KernelLadder, SymmetricGemmVariantBitIdentical) {
  Rng rng(22);
  for (const Isa arm : runnable_arms()) {
    if (arm == Isa::kScalar) continue;
    const Tensor x = Tensor::normal({19, 45}, rng, 0.f, 1.f);
    const Tensor w = Tensor::normal({37, 45}, rng, 0.f, 1.f);
    const QuantizedMatrix xq = quantize_per_row(x, Isa::kScalar);
    Tensor got, want;
    gemm_s8_nt(xq, quantize_per_row(w, arm), got);
    gemm_s8_nt(xq, quantize_per_row(w, Isa::kScalar), want);
    expect_bitwise_equal(got, want, isa_name(arm));
  }
}

TEST(KernelLadder, ZeroRowsAndConstantRowsBitIdentical) {
  Rng rng(23);
  for (const Isa arm : runnable_arms()) {
    if (arm == Isa::kScalar) continue;
    Tensor x = Tensor::normal({9, 33}, rng, 0.f, 1.f);
    Tensor w = Tensor::normal({21, 33}, rng, 0.f, 1.f);
    // All-zero rows (scale 0) on both sides, plus a constant activation
    // row — min == max, the asymmetric coder's degenerate case.
    for (std::size_t j = 0; j < 33; ++j) {
      x.at(2, j) = 0.f;
      x.at(5, j) = 4.25f;
      w.at(7, j) = 0.f;
    }
    check_arm_vs_scalar(x, w, nullptr, arm);
  }
}

TEST(KernelLadder, ShiftedActivationsExerciseOffsetPath) {
  Rng rng(24);
  for (const Isa arm : runnable_arms()) {
    if (arm == Isa::kScalar) continue;
    // ReLU-like all-positive activations: large per-row offsets, which is
    // exactly what the VNNI unsigned-bias correction must not disturb.
    Tensor x = Tensor::uniform({31, 96}, rng, 0.f, 9.f);
    const Tensor w = Tensor::normal({32, 96}, rng, 0.f, 1.2f);
    const Tensor bias = Tensor::normal({32}, rng, 0.f, 1.f);
    check_arm_vs_scalar(x, w, &bias, arm);
  }
}

TEST(KernelLadder, EightThreadPoolStaysBitIdentical) {
  // The pin above sizes the pool at 8 unless the environment already
  // chose otherwise.  The int8 GEMM runs on the calling thread whatever
  // the size, so the big acceptance shape must come out the same bytes.
  ASSERT_TRUE(g_pool_pinned);
  if (::getenv("PPGNN_NUM_THREADS") == std::string("8")) {
    EXPECT_EQ(global_pool().size(), 8u);
  }
  Rng rng(25);
  const Tensor x = Tensor::normal({255, 96}, rng, 0.1f, 1.f);
  const Tensor w = Tensor::normal({32, 96}, rng, 0.f, 1.f);
  const Tensor bias = Tensor::normal({32}, rng, 0.f, 1.f);
  for (const Isa arm : runnable_arms()) {
    check_arm_vs_scalar(x, w, &bias, arm);
  }
}

// --- Dispatch degrades, never crashes --------------------------------------

TEST(KernelLadder, MissingLayoutFallsBackToScalarBitIdentically) {
  Rng rng(26);
  const Tensor x = Tensor::normal({13, 40}, rng, 0.f, 1.f);
  const Tensor w = Tensor::normal({24, 40}, rng, 0.f, 1.f);
  const QuantizedActs xq = quantize_acts_per_row(x);
  Tensor want;
  gemm_s8_nt(xq, quantize_per_row(w, Isa::kScalar), want);

  // A matrix labeled for a wide arm but missing its layout — e.g. one
  // built on another host and shipped over — must answer via the scalar
  // path, not fault.
  for (const Isa arm : {Isa::kSse2, Isa::kAvx2, Isa::kAvx512Vnni}) {
    QuantizedMatrix q = quantize_per_row(w, arm);
    q.packed.clear();
    q.packed_quad.clear();
    EXPECT_EQ(gemm_dispatch_arm(q), Isa::kScalar) << isa_name(arm);
    Tensor got;
    gemm_s8_nt(xq, q, got);
    expect_bitwise_equal(got, want, isa_name(arm));
  }
}

TEST(KernelLadder, QuantizingForUnrunnableArmStillAnswers) {
  // Packing for an arm is always allowed (isa-explicit overload takes the
  // arm as given); the gemm degrades at dispatch if the host cannot run
  // it.  On hosts with the arm this exercises the normal path; on hosts
  // without, the degrade path — either way it must match scalar.
  Rng rng(27);
  const Tensor x = Tensor::normal({6, 50}, rng, 0.f, 1.f);
  const Tensor w = Tensor::normal({18, 50}, rng, 0.f, 1.f);
  const QuantizedActs xq = quantize_acts_per_row(x);
  Tensor want;
  gemm_s8_nt(xq, quantize_per_row(w, Isa::kScalar), want);
  for (std::size_t i = 1; i < kNumIsa; ++i) {
    const Isa arm = static_cast<Isa>(i);
    Tensor got;
    gemm_s8_nt(xq, quantize_per_row(w, arm), got);
    expect_bitwise_equal(got, want, isa_name(arm));
  }
}

}  // namespace
}  // namespace ppgnn
