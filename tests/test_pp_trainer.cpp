#include <gtest/gtest.h>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/sign.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "tensor/cpu_features.h"

namespace ppgnn::core {
namespace {

struct Fixture {
  graph::Dataset ds;
  Preprocessed pre;
  Fixture()
      : ds(graph::make_dataset(graph::DatasetName::kPokecSim, 0.08)) {
    PrecomputeConfig pc;
    pc.hops = 2;
    pre = precompute(ds.graph, ds.features, pc);
  }
  std::unique_ptr<Sign> make_model(Rng& rng) const {
    SignConfig sc;
    sc.feat_dim = ds.feature_dim();
    sc.hops = 2;
    sc.hidden = 32;
    sc.classes = ds.num_classes;
    sc.dropout = 0.2f;
    return std::make_unique<Sign>(sc, rng);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

PpTrainConfig base_config() {
  PpTrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 128;
  tc.eval_every = 2;
  return tc;
}

TEST(PpTrainer, LearnsAboveChance) {
  const auto& f = fixture();
  Rng rng(1);
  auto model = f.make_model(rng);
  auto tc = base_config();
  tc.epochs = 12;
  const auto r = train_pp(*model, f.pre, f.ds, tc);
  EXPECT_GT(r.history.peak_val_acc(), 0.6);  // binary task, ceiling ~0.83
  EXPECT_EQ(r.history.epochs.size(), 12u);
  EXPECT_EQ(r.train_rows, f.ds.split.train.size());
  EXPECT_EQ(r.row_bytes, f.pre.row_bytes());
}

TEST(PpTrainer, BaselineAndFusedGiveIdenticalTrajectories) {
  // The two synchronous assembly paths must be numerically identical —
  // same batches, same model updates, same accuracy.
  const auto& f = fixture();
  Rng r1(2), r2(2);
  auto m1 = f.make_model(r1);
  auto m2 = f.make_model(r2);
  auto tc = base_config();
  tc.mode = LoadingMode::kBaselinePerRow;
  const auto a = train_pp(*m1, f.pre, f.ds, tc);
  tc.mode = LoadingMode::kFusedAssembly;
  const auto b = train_pp(*m2, f.pre, f.ds, tc);
  ASSERT_EQ(a.history.epochs.size(), b.history.epochs.size());
  for (std::size_t e = 0; e < a.history.epochs.size(); ++e) {
    EXPECT_NEAR(a.history.epochs[e].train_loss, b.history.epochs[e].train_loss,
                1e-5);
    EXPECT_DOUBLE_EQ(a.history.epochs[e].val_acc, b.history.epochs[e].val_acc);
  }
}

TEST(PpTrainer, PrefetchMatchesSynchronousTrajectory) {
  // Double-buffered prefetching changes *when* batches are assembled, not
  // what they contain.
  const auto& f = fixture();
  Rng r1(3), r2(3);
  auto m1 = f.make_model(r1);
  auto m2 = f.make_model(r2);
  auto tc = base_config();
  tc.mode = LoadingMode::kFusedAssembly;
  const auto a = train_pp(*m1, f.pre, f.ds, tc);
  tc.mode = LoadingMode::kPrefetch;
  const auto b = train_pp(*m2, f.pre, f.ds, tc);
  for (std::size_t e = 0; e < a.history.epochs.size(); ++e) {
    EXPECT_NEAR(a.history.epochs[e].train_loss, b.history.epochs[e].train_loss,
                1e-5);
  }
}

TEST(PpTrainer, ChunkReshufflingReachesComparableAccuracy) {
  // Section 6.2: chunk reshuffling costs < ~1% accuracy.
  const auto& f = fixture();
  Rng r1(4), r2(4);
  auto m1 = f.make_model(r1);
  auto m2 = f.make_model(r2);
  auto tc = base_config();
  tc.epochs = 12;
  tc.mode = LoadingMode::kPrefetch;
  const auto rr = train_pp(*m1, f.pre, f.ds, tc);
  tc.mode = LoadingMode::kChunkPrefetch;
  tc.chunk_size = tc.batch_size;
  const auto cr = train_pp(*m2, f.pre, f.ds, tc);
  EXPECT_NEAR(cr.history.test_at_best_val(), rr.history.test_at_best_val(),
              0.04);
}

TEST(PpTrainer, StorageModeMatchesChunkAccuracy) {
  const auto& f = fixture();
  Rng r1(5), r2(5);
  auto m1 = f.make_model(r1);
  auto m2 = f.make_model(r2);
  auto tc = base_config();
  tc.mode = LoadingMode::kChunkPrefetch;
  tc.chunk_size = tc.batch_size;
  const auto cr = train_pp(*m1, f.pre, f.ds, tc);
  tc.mode = LoadingMode::kStorageChunk;
  tc.storage_dir = ::testing::TempDir() + "/pp_trainer_store";
  const auto st = train_pp(*m2, f.pre, f.ds, tc);
  // Same shuffler seed and semantics -> identical batches, identical runs.
  for (std::size_t e = 0; e < cr.history.epochs.size(); ++e) {
    EXPECT_NEAR(cr.history.epochs[e].train_loss,
                st.history.epochs[e].train_loss, 1e-5);
  }
}

TEST(PpTrainer, StorageChunkLossesArePinnedOnEveryGemmArm) {
  // Per-epoch losses recorded before the fp32 GEMM ladder existed (scalar
  // loops only).  Every arm repeats those loops' arithmetic, so the
  // dispatched arm and the forced scalar oracle reproduce them exactly.
  const auto& f = fixture();
  const std::vector<double> sgc = {0x1.6fc94accccccdp-1, 0x1.61092f999999ap-1,
                                   0x1.55c6a3999999ap-1};
  const std::vector<double> sign = {0x1.787f493333333p-1, 0x1.5b8c753333333p-1,
                                    0x1.57caeb999999ap-1};
  // Clears the override on every exit, so a failed assertion below cannot
  // leave later tests on the forced scalar arm.
  struct OverrideGuard {
    ~OverrideGuard() { clear_isa_override(); }
  } guard;
  for (const bool scalar : {false, true}) {
    if (scalar) set_isa_override(Isa::kScalar);
    for (const bool is_sgc : {true, false}) {
      SCOPED_TRACE(std::string(is_sgc ? "SGC" : "SIGN") +
                   (scalar ? " scalar" : " dispatched"));
      Rng rng(31);
      std::unique_ptr<PpModel> model;
      if (is_sgc) {
        model = std::make_unique<Sgc>(f.ds.feature_dim(), 2, f.ds.num_classes,
                                      rng);
      } else {
        model = f.make_model(rng);
      }
      PpTrainConfig tc;
      tc.epochs = 3;
      tc.batch_size = 128;
      tc.chunk_size = 128;
      tc.eval_every = 3;
      tc.seed = 17;
      tc.mode = LoadingMode::kStorageChunk;
      tc.storage_dir = ::testing::TempDir() + "/pp_trainer_pinned_store";
      const auto r = train_pp(*model, f.pre, f.ds, tc);
      const std::vector<double>& want = is_sgc ? sgc : sign;
      ASSERT_EQ(r.history.epochs.size(), want.size());
      for (std::size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(r.history.epochs[e].train_loss, want[e]) << "epoch " << e;
      }
    }
  }
}

TEST(PpTrainer, PhaseTimingsPopulated) {
  const auto& f = fixture();
  Rng rng(6);
  auto model = f.make_model(rng);
  auto tc = base_config();
  tc.epochs = 2;
  tc.mode = LoadingMode::kBaselinePerRow;
  const auto r = train_pp(*model, f.pre, f.ds, tc);
  const auto& e = r.history.epochs.front();
  EXPECT_GT(e.epoch_seconds, 0.0);
  EXPECT_GT(e.forward_seconds, 0.0);
  EXPECT_GT(e.backward_seconds, 0.0);
  EXPECT_GT(e.optimizer_seconds, 0.0);
  EXPECT_GT(e.data_loading_seconds, 0.0);
}

TEST(PpTrainer, ConvergenceEpochIsSensible) {
  const auto& f = fixture();
  Rng rng(7);
  auto model = f.make_model(rng);
  auto tc = base_config();
  tc.epochs = 10;
  tc.eval_every = 1;
  const auto r = train_pp(*model, f.pre, f.ds, tc);
  const auto conv = r.history.convergence_epoch();
  EXPECT_GE(conv, 1u);
  EXPECT_LE(conv, 10u);
  // Convergence epoch reaches 99% of peak by definition.
  EXPECT_GE(r.history.epochs[conv - 1].val_acc,
            0.99 * r.history.peak_val_acc() - 1e-9);
}

TEST(PpTrainer, SgcTrainsToo) {
  const auto& f = fixture();
  Rng rng(8);
  Sgc model(f.ds.feature_dim(), 2, f.ds.num_classes, rng);
  auto tc = base_config();
  tc.epochs = 10;
  const auto r = train_pp(model, f.pre, f.ds, tc);
  EXPECT_GT(r.history.peak_val_acc(), 0.55);
}

TEST(PpTrainer, BytesLoadedAccounting) {
  const auto& f = fixture();
  Rng rng(9);
  auto model = f.make_model(rng);
  auto tc = base_config();
  tc.epochs = 1;
  const auto r = train_pp(*model, f.pre, f.ds, tc);
  EXPECT_EQ(r.bytes_loaded_per_epoch, r.train_rows * r.row_bytes);
}

TEST(EvaluatePp, MatchesManualAccuracy) {
  const auto& f = fixture();
  Rng rng(10);
  auto model = f.make_model(rng);
  const double acc = evaluate_pp(*model, f.pre, f.ds, f.ds.split.valid, 64);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Metrics, TrainHistoryHelpers) {
  TrainHistory h;
  for (std::size_t e = 1; e <= 5; ++e) {
    EpochRecord r;
    r.epoch = e;
    r.val_acc = 0.1 * static_cast<double>(e);
    r.test_acc = 0.1 * static_cast<double>(e) - 0.01;
    r.epoch_seconds = 2.0;
    h.epochs.push_back(r);
  }
  EXPECT_DOUBLE_EQ(h.peak_val_acc(), 0.5);
  EXPECT_DOUBLE_EQ(h.test_at_best_val(), 0.49);
  EXPECT_EQ(h.convergence_epoch(), 5u);
  EXPECT_EQ(h.convergence_epoch(0.5), 3u);
  EXPECT_DOUBLE_EQ(h.mean_epoch_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(h.total_train_seconds(), 10.0);
}

}  // namespace
}  // namespace ppgnn::core
