// train_sgc_storage: train_pp in kStorageChunk mode — the paper's Section
// 4.3 loader, chunk-reshuffled rows read from the FeatureFileStore with
// prefetch — training SGC on a 100k-node SBM with 256-wide features and 3
// hops (4 KB rows; the 50k training rows move ~200 MB per epoch), batch and
// chunk size 1024.  fp32 forward/backward and sequential storage reads do
// the work; the serving tier does none.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/sgc.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "graph/generator.h"
#include "loader/prefetch.h"
#include "loader/shuffler.h"
#include "loader/storage.h"
#include "nn/optimizer.h"
#include "serve/inference_session.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppgnn;

constexpr std::size_t kClasses = 16;
constexpr std::size_t kHops = 3;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kChunk = 1024;
constexpr float kLr = 1e-2f;
constexpr std::size_t kMaxEpochsPerRound = 200;
// Test accuracy the trained SGC must reach (measured: ~0.8 on the full
// graph; a broken loader or optimizer lands near chance, 1/16).
constexpr double kAccuracyFloor = 0.5;

// Forwards to the real model and stamps every training forward: the
// interval between two consecutive stamps is one training step as
// train_pp's caller sees it (load wait, forward, loss, backward, Adam).
class StepClock : public core::PpModel {
 public:
  explicit StepClock(std::unique_ptr<core::PpModel> inner)
      : inner_(std::move(inner)) {}
  Tensor forward(const Tensor& batch, bool train) override {
    if (train) stamps_.push_back(Clock::now());
    return inner_->forward(batch, train);
  }
  void backward(const Tensor& grad) override { inner_->backward(grad); }
  void collect_params(std::vector<nn::ParamSlot>& out) override {
    inner_->collect_params(out);
  }
  void collect_linears(std::vector<nn::Linear*>& out) override {
    inner_->collect_linears(out);
  }
  std::string name() const override { return inner_->name(); }
  std::size_t hops() const override { return inner_->hops(); }

  core::PpModel& inner() { return *inner_; }
  std::unique_ptr<core::PpModel> release() { return std::move(inner_); }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  std::unique_ptr<core::PpModel> inner_;
  std::vector<Clock::time_point> stamps_;
};

class TrainingRun {
 public:
  TrainingRun(const Args& args, Record& rec, Tracer& tracer)
      : args_(args), rec_(rec), tracer_(tracer) {
    dir_ = args.dir + "/" + args.workload;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void run();

 private:
  std::unique_ptr<core::PpModel> make_sgc(std::uint64_t seed) const {
    Rng rng(seed);
    return std::make_unique<core::Sgc>(feat_dim_, kHops, kClasses, rng);
  }
  void generate();
  // One set-up plus train_pp call; appends its measurements.
  void train_round(std::size_t round, std::size_t epochs);
  // Traced mirror of train_pp's storage-chunk epoch, with spans around
  // each call into the loader and nn layers.
  void traced_epochs(std::size_t epochs);
  void report();

  const Args& args_;
  Record& rec_;
  Tracer& tracer_;
  std::string dir_;
  std::size_t feat_dim_ = 0;
  graph::Dataset ds_;
  Tensor x_;
  std::unique_ptr<core::Preprocessed> pre_;  // the last round's

  std::vector<double> setup_s_, precompute_s_, pre_epoch_s_;
  std::vector<EpochRecord> epochs_;  // measured (warm-up epochs dropped)
  std::vector<double> step_p50_us_, step_p99_us_;  // per measured epoch
  std::size_t steps_ = 0;
  std::vector<double> accuracy_;
  std::size_t bytes_per_epoch_ = 0;
  std::size_t steps_per_epoch_ = 0;
  std::unique_ptr<core::PpModel> trained_;
};

void TrainingRun::generate() {
  const Scale& sc = args_.scale;
  feat_dim_ = sc.train_feat_dim;
  graph::SbmConfig gc;
  gc.num_nodes = sc.train_nodes;
  gc.num_classes = kClasses;
  gc.avg_degree = 10.0;
  gc.seed = args_.seed;
  graph::SbmGraph sbm = graph::generate_sbm(gc);
  graph::FeatureConfig fc;
  fc.dim = feat_dim_;
  fc.seed = args_.seed + 1;
  x_ = graph::generate_features(sbm.labels, kClasses, fc);
  graph::SplitConfig split;
  split.seed = args_.seed + 3;
  ds_.name = "sbm";
  ds_.graph = std::move(sbm.graph);
  ds_.labels = std::move(sbm.labels);
  ds_.num_classes = kClasses;
  ds_.split = graph::make_split(gc.num_nodes, split);
  steps_per_epoch_ = (ds_.split.train.size() + kBatch - 1) / kBatch;
}

// Set-up for training is core::precompute plus everything train_pp does
// before its first epoch (materializing the training rows, writing the
// file store).  train_pp does not expose that split, so it is its wall
// time minus its epochs and its one final evaluation, timed again here.
void TrainingRun::train_round(std::size_t round, std::size_t epochs) {
  pre_.reset();
  core::PrecomputeConfig pc;
  pc.hops = kHops;
  const auto t0 = Clock::now();
  pre_ = std::make_unique<core::Preprocessed>(
      core::precompute(ds_.graph, x_, pc));
  const double precompute = seconds_between(t0, Clock::now());

  StepClock model(make_sgc(args_.seed + 10 + round));
  core::PpTrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = kBatch;
  cfg.chunk_size = kChunk;
  cfg.lr = kLr;
  cfg.eval_every = epochs;
  cfg.seed = args_.seed + round;
  cfg.mode = core::LoadingMode::kStorageChunk;
  cfg.storage_dir = dir_ + "/store";
  const auto t1 = Clock::now();
  const core::PpTrainResult result = core::train_pp(model, *pre_, ds_, cfg);
  const double wall = seconds_between(t1, Clock::now());
  const auto t2 = Clock::now();
  (void)core::evaluate_pp(model.inner(), *pre_, ds_, ds_.split.valid);
  (void)core::evaluate_pp(model.inner(), *pre_, ds_, ds_.split.test);
  const double eval = seconds_between(t2, Clock::now());

  double epoch_sum = 0;
  for (const EpochRecord& e : result.history.epochs) {
    epoch_sum += e.epoch_seconds;
    rec_.attempt("train");
    if (!std::isfinite(e.train_loss)) rec_.failure("train", "nonfinite_loss");
    if (e.epoch > 1) epochs_.push_back(e);
  }
  const double pre_epoch = std::max(0.0, wall - epoch_sum - eval);
  precompute_s_.push_back(precompute);
  pre_epoch_s_.push_back(pre_epoch);
  setup_s_.push_back(precompute + pre_epoch);
  accuracy_.push_back(result.history.epochs.back().test_acc);
  bytes_per_epoch_ = result.bytes_loaded_per_epoch;

  // Step times within each measured epoch.  The step that crosses an epoch
  // boundary also pays the next epoch's shuffle and loader start; that is
  // epoch set-up, counted in epoch_s, and left out here.  Percentiles are
  // taken per epoch, so a slow episode on a shared host moves a few
  // epochs' values rather than the pooled tail.
  const auto& st = model.stamps();
  for (std::size_t e = 1; e < epochs; ++e) {
    const std::size_t lo = e * steps_per_epoch_;
    std::vector<double> steps;
    for (std::size_t i = lo; i + 1 < lo + steps_per_epoch_ && i + 1 < st.size();
         ++i) {
      steps.push_back(us_between(st[i], st[i + 1]));
    }
    step_p50_us_.push_back(percentile(steps, 50));
    step_p99_us_.push_back(percentile(steps, 99));
    steps_ += steps.size();
  }
  if (st.size() != steps_per_epoch_ * epochs) {
    rec_.incorrect("train_pp ran " + std::to_string(st.size()) +
                   " training forwards, expected " +
                   std::to_string(steps_per_epoch_ * epochs));
  }
  trained_ = model.release();
}

void TrainingRun::traced_epochs(std::size_t epochs) {
  const auto& train_idx = ds_.split.train;
  std::vector<Tensor> hop_train;
  for (const Tensor& hop : pre_->hop_features) {
    hop_train.push_back(gather_rows(hop, train_idx));
  }
  const auto tc = Clock::now();
  const loader::FeatureFileStore store = loader::FeatureFileStore::create(
      dir_ + "/traced_store", hop_train);
  rec_.metric("setup.store_create_s", seconds_between(tc, Clock::now()), "s",
              1);
  hop_train.clear();
  std::vector<std::int32_t> train_y(train_idx.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    train_y[i] = ds_.labels[static_cast<std::size_t>(train_idx[i])];
  }

  auto model = make_sgc(args_.seed + 99);
  std::vector<nn::ParamSlot> params;
  model->collect_params(params);
  nn::Adam opt(params, kLr);
  const auto shuffler = loader::make_shuffler(kChunk);
  Rng rng(args_.seed);

  const std::uint32_t n_epoch = tracer_.name_id("train.epoch");
  const std::uint32_t n_read = tracer_.name_id("loader.read_chunk");
  const std::uint32_t n_wait = tracer_.name_id("loader.prefetch_wait");
  const std::uint32_t n_fwd = tracer_.name_id("nn.forward");
  const std::uint32_t n_bwd = tracer_.name_id("nn.backward");
  const std::uint32_t n_adam = tracer_.name_id("nn.adam");
  Tracer::Buffer& main_buf = tracer_.new_buffer();
  Tracer::Buffer& producer_buf = tracer_.new_buffer();

  const std::size_t n = train_idx.size();
  const std::size_t row_floats = store.row_bytes() / sizeof(float);
  std::vector<double> epoch_s, preads;
  for (std::size_t epoch = 1; epoch <= epochs; ++epoch) {
    const auto t_epoch = Clock::now();
    const std::uint64_t root = main_buf.reserve();
    const std::uint64_t preads0 = store.preads();
    const std::vector<std::int64_t> order = shuffler->epoch_order(n, rng);
    const std::size_t batches = (n + kBatch - 1) / kBatch;
    // As train_pp's storage-chunk assemble: contiguous runs of the batch's
    // rows, one read_chunk per run.
    const auto assemble = [&](std::size_t k) {
      const auto t = Clock::now();
      loader::MiniBatch mb;
      const std::size_t lo = k * kBatch, hi = std::min(lo + kBatch, n);
      mb.indices.assign(order.begin() + static_cast<std::ptrdiff_t>(lo),
                        order.begin() + static_cast<std::ptrdiff_t>(hi));
      mb.features = Tensor({mb.indices.size(), row_floats});
      std::size_t i = 0;
      while (i < mb.indices.size()) {
        std::size_t run = 1;
        while (i + run < mb.indices.size() &&
               mb.indices[i + run] == mb.indices[i + run - 1] + 1) {
          ++run;
        }
        Tensor piece({run, row_floats});
        store.read_chunk(static_cast<std::size_t>(mb.indices[i]), run, piece);
        std::copy(piece.data(), piece.data() + piece.size(),
                  mb.features.row(i));
        i += run;
      }
      mb.labels.resize(mb.indices.size());
      for (std::size_t j = 0; j < mb.indices.size(); ++j) {
        mb.labels[j] = train_y[static_cast<std::size_t>(mb.indices[j])];
      }
      producer_buf.add(n_read, epoch, root, t, Clock::now());
      return mb;
    };
    {
      loader::PrefetchingLoader prefetcher(assemble, batches);
      loader::MiniBatch mb;
      while (true) {
        auto t = Clock::now();
        const bool more = prefetcher.next(mb);
        auto t_next = Clock::now();
        main_buf.add(n_wait, epoch, root, t, t_next);
        if (!more) break;
        t = t_next;
        Tensor logits = model->forward(mb.features, /*train=*/true);
        Tensor grad(logits.shape());
        (void)cross_entropy(logits, mb.labels, grad);
        t_next = Clock::now();
        main_buf.add(n_fwd, epoch, root, t, t_next);
        t = t_next;
        opt.zero_grad();
        model->backward(grad);
        t_next = Clock::now();
        main_buf.add(n_bwd, epoch, root, t, t_next);
        t = t_next;
        opt.step();
        main_buf.add(n_adam, epoch, root, t, Clock::now());
      }
    }
    const auto t_end = Clock::now();
    main_buf.finish(root, n_epoch, epoch, 0, t_epoch, t_end);
    if (epoch > 1) {
      epoch_s.push_back(seconds_between(t_epoch, t_end));
      preads.push_back(static_cast<double>(store.preads() - preads0));
    }
  }

  const auto per_epoch_s = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& [epoch, us] : tracer_.self_us_by_trace(name)) {
      if (epoch > 1) v.push_back(us / 1e6);
    }
    return v;
  };
  double layers = 0;
  for (const auto& [name, metric] :
       {std::pair{"loader.read_chunk", "loader.read_chunk_s"},
        {"loader.prefetch_wait", "loader.prefetch_wait_s"},
        {"nn.forward", "nn.forward_s"},
        {"nn.backward", "nn.backward_s"},
        {"nn.adam", "nn.adam_s"}}) {
    const std::vector<double> v = per_epoch_s(name);
    rec_.metric(metric, median(v), "s", v.size());
    // read_chunk runs on the prefetch thread, off the blocking path.
    if (std::string(name) != "loader.read_chunk") layers += median(v);
  }
  rec_.metric("loader.preads_per_epoch", median(preads), "count",
              preads.size());

  // Reconciliation: blocking-path layers of the traced epochs against the
  // untraced train_pp epoch median; overhead: traced against untraced
  // epoch time.
  std::vector<double> untraced;
  for (const EpochRecord& e : epochs_) untraced.push_back(e.epoch_seconds);
  const double e2e = median(untraced);
  rec_.metric("reconcile.layers_us", layers * 1e6, "us", epoch_s.size());
  rec_.metric("reconcile.e2e_us", e2e * 1e6, "us", untraced.size());
  rec_.metric("reconcile.gap_frac", e2e > 0 ? (e2e - layers) / e2e : 0,
              "frac", 1);
  rec_.metric("trace.overhead_frac",
              e2e > 0 ? (median(epoch_s) - e2e) / e2e : 0, "frac",
              epoch_s.size());
}

void TrainingRun::report() {
  const double epoch_s = [&] {
    std::vector<double> v;
    for (const EpochRecord& e : epochs_) v.push_back(e.epoch_seconds);
    return median(v);
  }();
  rec_.metric("setup_s", median(setup_s_), "s", setup_s_.size());
  rec_.metric("epoch_s", epoch_s, "s", epochs_.size());
  rec_.metric("nodes_per_s",
              epoch_s > 0 ? static_cast<double>(ds_.split.train.size()) /
                                epoch_s
                          : 0,
              "1/s", epochs_.size());
  rec_.metric("p50_us", median(step_p50_us_), "us", steps_);
  rec_.metric("p99_us", median(step_p99_us_), "us", steps_);
  rec_.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  rec_.metric("accuracy", median(accuracy_), "frac", accuracy_.size());
  rec_.info("pre_epoch_s", median(pre_epoch_s_));

  for (const double acc : accuracy_) {
    if (!(acc >= kAccuracyFloor)) {
      rec_.incorrect("test accuracy " + std::to_string(acc) +
                     " below the floor " + std::to_string(kAccuracyFloor));
    }
  }
  if (rec_.failed_by_cause("nonfinite_loss")) {
    rec_.incorrect("non-finite training loss");
  }
}

void TrainingRun::run() {
  generate();
  // Split the measured time over the set-up rounds; each round's first
  // epoch is warm-up.  Epoch counts follow the measured epoch time, so a
  // faster trainer runs more epochs in the same window.
  const std::size_t rounds = args_.scale.setup_rounds_train;
  const double per_round = args_.seconds / static_cast<double>(rounds);
  double est_epoch_s = 0.25;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto epochs = static_cast<std::size_t>(std::clamp(
        std::ceil(per_round / est_epoch_s), 2.0,
        static_cast<double>(kMaxEpochsPerRound)));
    train_round(r, epochs + 1);
    std::vector<double> v;
    for (const EpochRecord& e : epochs_) v.push_back(e.epoch_seconds);
    est_epoch_s = std::max(1e-3, median(v));
  }
  report();
  if (!args_.trace) return;

  std::vector<double> v;
  const auto med = [](std::vector<double> x) { return median(std::move(x)); };
  for (const EpochRecord& e : epochs_) v.push_back(e.data_loading_seconds);
  rec_.metric("train.load_stall_s", med(v), "s", v.size());
  v.clear();
  for (const EpochRecord& e : epochs_) v.push_back(e.forward_seconds);
  rec_.metric("train.forward_s", med(v), "s", v.size());
  v.clear();
  for (const EpochRecord& e : epochs_) v.push_back(e.backward_seconds);
  rec_.metric("train.backward_s", med(v), "s", v.size());
  v.clear();
  for (const EpochRecord& e : epochs_) v.push_back(e.optimizer_seconds);
  rec_.metric("train.optimizer_s", med(v), "s", v.size());
  rec_.metric("loader.bytes_per_epoch", static_cast<double>(bytes_per_epoch_),
              "B", 1);
  rec_.metric("setup.precompute_s", median(precompute_s_), "s",
              precompute_s_.size());

  const auto epochs = static_cast<std::size_t>(std::clamp(
      std::ceil(args_.seconds / 2 / est_epoch_s), 2.0,
      static_cast<double>(kMaxEpochsPerRound)));
  traced_epochs(epochs + 1);

  // nn / tensor replay with the trained weights at the training batch.
  const std::string ckpt = dir_ + "/trained.ckpt";
  serve::save_deployed_model(*trained_, ckpt);
  std::vector<std::int64_t> rows(
      ds_.split.train.begin(),
      ds_.split.train.begin() +
          static_cast<std::ptrdiff_t>(std::min(kBatch, ds_.split.train.size())));
  replay_nn([this] { return make_sgc(0); }, ckpt, pre_->expanded_rows(rows),
            rec_);
}

}  // namespace

void run_training(const Args& args, Record& rec, Tracer& tracer) {
  TrainingRun(args, rec, tracer).run();
}

}  // namespace perfbench
