// The request path never forks.  A serving SIGN forward at every batch up
// to 256 rows (int8 on every ISA rung, fp32 on the avx2 and avx512 GEMM
// arms) and one SGC training step run entirely on the calling thread.
// The global pool starts its workers on the first parallel_for that
// splits, so after each call /proc/self/task must still hold one thread.
// This is a binary of its own because the pool is per process: a split
// anywhere earlier in the binary would leave its workers running for
// every later check.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/sgc.h"
#include "core/sign.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ppgnn {
namespace {

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Size the pool at 4 before anything can build it, so a split would start
// 3 workers.
const bool g_pool_sized = [] {
  ::setenv("PPGNN_NUM_THREADS", "4", 1);
  return true;
}();

// perfbench's serving SIGN (perfbench/src/serving.cpp).
constexpr std::size_t kFeatDim = 32, kHops = 2, kHidden = 32, kClasses = 16;
constexpr std::size_t kBatches[] = {1, 8, 25, 64, 128, 256};

std::unique_ptr<core::Sign> make_serving_sign() {
  Rng rng(7);
  core::SignConfig sc;
  sc.feat_dim = kFeatDim;
  sc.hops = kHops;
  sc.hidden = kHidden;
  sc.classes = kClasses;
  sc.mlp_layers = 2;
  sc.dropout = 0.f;
  return std::make_unique<core::Sign>(sc, rng);
}

class RequestPathThreads : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(g_pool_sized);
    if (!std::filesystem::exists("/proc/self/task")) {
      GTEST_SKIP() << "needs /proc/self/task";
    }
    ASSERT_EQ(live_threads(), 1u);
  }

  static void expect_forwards_stay_on_caller(core::PpModel& model,
                                             const char* precision) {
    Rng rng(11);
    for (const std::size_t b : kBatches) {
      const Tensor batch =
          Tensor::uniform({b, (kHops + 1) * kFeatDim}, rng, -1.f, 1.f);
      const Tensor logits = model.infer(batch);
      ASSERT_EQ(logits.rows(), b);
      ASSERT_EQ(live_threads(), 1u)
          << precision << " forward at batch " << b;
    }
  }
};

TEST_F(RequestPathThreads, Int8SignForwardRunsOnCallerThread) {
  auto model = make_serving_sign();
  core::quantize_int8(*model);
  ASSERT_EQ(live_threads(), 1u) << "quantize_int8";
  ASSERT_NO_FATAL_FAILURE(expect_forwards_stay_on_caller(*model, "int8"));
}

TEST_F(RequestPathThreads, Fp32SignForwardAndSgcStepRunOnCallerThread) {
  if (std::string(gemm_f32_arm()) == "scalar") {
    GTEST_SKIP() << "the scalar fp32 GEMM oracle splits across the pool "
                    "from 5 rows";
  }
  auto model = make_serving_sign();
  ASSERT_NO_FATAL_FAILURE(expect_forwards_stay_on_caller(*model, "fp32"));

  // One step at train_sgc_storage's shape: 1024 rows of 4 hops x 256
  // features, 16 classes.
  constexpr std::size_t kSgcDim = 256, kSgcHops = 3, kSgcRows = 1024;
  Rng rng(13);
  core::Sgc sgc(kSgcDim, kSgcHops, kClasses, rng);
  std::vector<nn::ParamSlot> slots;
  sgc.collect_params(slots);
  nn::Adam opt(slots, 0.01f);
  const Tensor batch = Tensor::uniform(
      {kSgcRows, (kSgcHops + 1) * kSgcDim}, rng, -1.f, 1.f);
  std::vector<std::int32_t> labels(kSgcRows);
  for (std::size_t i = 0; i < kSgcRows; ++i) {
    labels[i] = static_cast<std::int32_t>(i % kClasses);
  }
  Tensor grad({kSgcRows, kClasses});
  opt.zero_grad();
  const Tensor logits = sgc.forward(batch, true);
  ASSERT_EQ(live_threads(), 1u) << "SGC forward";
  (void)cross_entropy(logits, labels, grad);
  ASSERT_EQ(live_threads(), 1u) << "cross_entropy";
  sgc.backward(grad);
  ASSERT_EQ(live_threads(), 1u) << "SGC backward";
  opt.step();
  ASSERT_EQ(live_threads(), 1u) << "Adam step";
}

}  // namespace
}  // namespace ppgnn
