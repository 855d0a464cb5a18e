// Multi-kernel preprocessing (Eq. 2 with K operators) and its interaction
// with the PP-GNN models and the input-expansion accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/precompute.h"
#include "core/sign.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "tensor/ops.h"

namespace ppgnn::core {
namespace {

std::vector<PrecomputeConfig> three_kernels(std::size_t hops) {
  PrecomputeConfig adj;
  adj.op = OperatorKind::kSymNorm;
  adj.hops = hops;
  PrecomputeConfig ppr;
  ppr.op = OperatorKind::kPpr;
  ppr.hops = hops;
  PrecomputeConfig heat;
  heat.op = OperatorKind::kHeat;
  heat.hops = hops;
  return {adj, ppr, heat};
}

TEST(MultiOperator, MatrixCountIsSharedXPlusKR) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(2));
  // 1 shared X + 3 kernels * 2 hops.
  EXPECT_EQ(pre.hop_features.size(), 1u + 3 * 2);
  EXPECT_EQ(pre.row_bytes(), 7 * ds.feature_dim() * sizeof(float));
}

TEST(MultiOperator, FirstKernelMatchesSingleOperatorRun) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto multi = precompute_multi(ds.graph, ds.features, three_kernels(2));
  PrecomputeConfig adj;
  adj.hops = 2;
  const auto single = precompute(ds.graph, ds.features, adj);
  EXPECT_TRUE(allclose(multi.hop_features[0], single.hop_features[0]));
  EXPECT_TRUE(allclose(multi.hop_features[1], single.hop_features[1]));
  EXPECT_TRUE(allclose(multi.hop_features[2], single.hop_features[2]));
}

TEST(MultiOperator, KernelsProduceDistinctFeatures) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(1));
  // [X, adj, ppr, heat]: the three propagated variants must all differ.
  EXPECT_FALSE(allclose(pre.hop_features[1], pre.hop_features[2]));
  EXPECT_FALSE(allclose(pre.hop_features[1], pre.hop_features[3]));
  EXPECT_FALSE(allclose(pre.hop_features[2], pre.hop_features[3]));
}

TEST(MultiOperator, SignTrainsOnMultiKernelInput) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.08);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(2));
  Rng rng(1);
  SignConfig sc;
  sc.feat_dim = ds.feature_dim();
  sc.hops = pre.hop_features.size() - 1;  // branches = total matrices
  sc.hidden = 32;
  sc.classes = ds.num_classes;
  sc.dropout = 0.2f;
  Sign model(sc, rng);
  PpTrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 128;
  tc.eval_every = 2;
  const auto r = train_pp(model, pre, ds, tc);
  EXPECT_GT(r.history.peak_val_acc(), 0.6);
}

TEST(MultiOperator, RejectsEmptyConfig) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  EXPECT_THROW(precompute_multi(ds.graph, ds.features, {}),
               std::invalid_argument);
}

TEST(MultiOperator, PreprocessTimeAccumulates) {
  // precompute_multi sums its three operators' times, so it reads about
  // 3x one operator's; a multi that kept only the last operator's time
  // would read about 1x.  Single cold timings of a millisecond swing past
  // that (the first call also builds the pool), so both sides are timed
  // warm, as the minimum of 5 runs each.
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  (void)precompute(ds.graph, ds.features, {});
  double one = 1e30, multi = 1e30;
  for (int run = 0; run < 5; ++run) {
    one = std::min(one, precompute(ds.graph, ds.features, {})
                            .preprocess_seconds);
    multi = std::min(
        multi, precompute_multi(ds.graph, ds.features, three_kernels(3))
                   .preprocess_seconds);
  }
  EXPECT_GT(multi, 2 * one);
}

TEST(MultiOperator, ExpansionMatchesPaperFormula) {
  // PaperScale::preprocessed_bytes models K(R+1); the in-memory multi-op
  // result stores 1 + K*R matrices (shared X); both grow linearly in K.
  const auto scale = graph::paper_scale(graph::DatasetName::kProductsSim);
  EXPECT_EQ(scale.preprocessed_bytes(3, 2), 2 * scale.preprocessed_bytes(3, 1));
}

}  // namespace
}  // namespace ppgnn::core
