// Table 7 (Appendix G) — preprocessing overhead vs a single training run.
//
// For each analogue: real preprocessing wall time, real mean epoch time of
// HOGA at the dataset's maximum hop count, and the resulting ratio — the
// paper's "one-time cost amortized over training" argument.  The paper's
// own ratios are printed alongside.  Preprocessing runs graph::spmm, whose
// arm (docs/kernels.md, "The SpMM ladder") the header line names.
#include "common.h"
#include "tensor/ops.h"

using namespace ppgnn;
using namespace ppgnn::bench;

int main() {
  header("Table 7: preprocessing cost vs one training run (analogues, real)");
  std::printf("SpMM arm: %s\n", gemm_f32_arm());
  std::printf("%-16s %6s %10s %12s %8s %14s %8s\n", "dataset", "hops",
              "pre (s)", "epoch (s)", "epochs", "run est (s)", "ratio");

  struct Row {
    graph::DatasetName name;
    std::size_t hops;
    std::size_t epochs;  // paper's per-run epoch budget
    double paper_ratio;
  };
  const Row rows[] = {
      {graph::DatasetName::kProductsSim, 6, 200, 0.53},
      {graph::DatasetName::kPokecSim, 6, 400, 0.03},
      {graph::DatasetName::kWikiSim, 6, 400, 0.11},
      {graph::DatasetName::kIgbMediumSim, 3, 100, 0.11},
      {graph::DatasetName::kPapers100MSim, 4, 200, 0.90},
      {graph::DatasetName::kIgbLargeSim, 3, 30, 0.28},
  };
  for (const Row& row : rows) {
    const auto ds = graph::make_dataset(row.name, 0.4);
    core::PrecomputeConfig pc;
    pc.hops = row.hops;
    const auto pre = core::precompute(ds.graph, ds.features, pc);
    // Short real HOGA run to measure epoch time at max hops.
    const auto r = run_pp(ds, "HOGA", row.hops, 3, 64);
    const double epoch = r.history.mean_epoch_seconds();
    const double run_est = epoch * static_cast<double>(row.epochs);
    std::printf("%-16s %6zu %10.3f %12.4f %8zu %14.2f %7.0f%%  (paper %3.0f%%)\n",
                ds.name.c_str(), row.hops, pre.preprocess_seconds, epoch,
                row.epochs, run_est,
                100.0 * pre.preprocess_seconds / run_est,
                100.0 * row.paper_ratio);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: preprocessing is a fraction of one training "
              "run everywhere except papers100M (where only 1.4%% of nodes "
              "train but ALL nodes propagate).\n");
  return 0;
}
