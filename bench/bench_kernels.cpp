// Kernel microbenchmarks (google-benchmark): the primitive costs that the
// hardware cost model abstracts — GEMM, fused vs per-row gather, the
// fp32 GEMM, SpMM and INT8 GEMM per kernel-ladder arm, and a storage
// chunk read — measured for real on this machine.  The per-row vs fused
// assembly gap is the CPU-side ground truth behind the paper's Section
// 4.1 optimization.
//
// --ladder-json=PATH bypasses google-benchmark and appends one
// kernel_ladder record per supported ISA arm into the JSON array at PATH
// (BENCH_serving.json in CI) — the per-ISA GEMM table the fleetsim
// calibration and sim::CpuGemmSpec::measured() consume.  Each arm gets
// 2,000 warm-up calls, then 21 rounds of 500 calls, run round by round
// (round r of every arm before round r+1) so that a stretch of slow host
// time lands on every arm; its rate is its median round.
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/normalize.h"
#include "graph/spmm.h"
#include "loader/host_loader.h"
#include "loader/storage.h"
#include "tensor/cpu_features.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

namespace {

using namespace ppgnn;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::normal({n, n}, rng);
  Tensor b = Tensor::normal({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    gemm(a, false, b, false, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The fp32 GEMM ladder (docs/kernels.md) on SGC's training shapes: a
// 1024-row batch of 256-wide features, 16 classes.  Arg 0 is the ISA rung
// (its fp32 arm is the label), arg 1 the GEMM: 0 = forward X W (NN),
// 1 = dW += X^T dY (TN), 2 = dX = dY W^T (NT).
void BM_GemmF32Ladder(benchmark::State& state) {
  const Isa rung = static_cast<Isa>(state.range(0));
  if (!isa_supported(rung)) {
    state.SkipWithError("arm not supported on this host");
    return;
  }
  constexpr std::size_t kRows = 1024, kFeat = 256, kClasses = 16;
  Rng rng(6);
  const Tensor x = Tensor::normal({kRows, kFeat}, rng);
  const Tensor w = Tensor::normal({kFeat, kClasses}, rng);
  const Tensor dy = Tensor::normal({kRows, kClasses}, rng);
  Tensor y({kRows, kClasses}), dw({kFeat, kClasses}), dx({kRows, kFeat});
  const int which = static_cast<int>(state.range(1));
  const float* out = which == 0 ? y.data() : which == 1 ? dw.data() : dx.data();
  set_isa_override(rung);
  state.SetLabel(gemm_f32_arm());
  for (auto _ : state) {
    switch (which) {
      case 0: gemm(x, false, w, false, y); break;
      case 1: gemm(x, true, dy, false, dw, 1.f, 1.f); break;
      default: gemm(dy, false, w, true, dx); break;
    }
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  clear_isa_override();
  state.SetItemsProcessed(state.iterations() * 2 * kRows * kFeat * kClasses);
}
BENCHMARK(BM_GemmF32Ladder)->ArgsProduct({{0, 2, 3}, {0, 1, 2}});

// The serving testbed's first Linear at a saturated micro-batch — the
// kernel ladder's acceptance shape (AVX2 >= 1.5x SSE2 here).
constexpr std::size_t kLadderM = 255, kLadderK = 96, kLadderN = 32;

void BM_GemmS8Ladder(benchmark::State& state) {
  const Isa arm = static_cast<Isa>(state.range(0));
  if (!isa_supported(arm)) {
    state.SkipWithError("arm not supported on this host");
    return;
  }
  Rng rng(5);
  const Tensor x = Tensor::normal({kLadderM, kLadderK}, rng, 0.1f, 1.f);
  const Tensor w = Tensor::normal({kLadderN, kLadderK}, rng, 0.f, 1.f);
  const QuantizedActs xq = quantize_acts_per_row(x);
  const QuantizedMatrix wq = quantize_per_row(w, arm);
  Tensor c;
  gemm_s8_nt(xq, wq, c);  // warm the caches and the output tensor
  for (auto _ : state) {
    gemm_s8_nt(xq, wq, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(isa_name(arm));
  state.SetItemsProcessed(state.iterations() * 2 * kLadderM * kLadderK *
                          kLadderN);
}
BENCHMARK(BM_GemmS8Ladder)->DenseRange(0, static_cast<int>(kNumIsa) - 1);

// The SpMM ladder (docs/kernels.md) on perfbench's graphs: one hop of
// sym-normalized propagation (self loops added) over a 100k-node SBM of
// average degree 10, at the width of each workload's precompute: 32 on
// the serving graph (degree_power 1.6), 256 on the training graph
// (993,688 edges before the self loops).  Arg 0 is the ISA rung (its SpMM
// arm is the label), arg 1 the width.
const graph::CsrGraph& perfbench_operator(std::size_t width) {
  const auto make = [](double degree_power) {
    graph::SbmConfig sc;
    sc.num_nodes = 100000;
    sc.num_classes = 16;
    sc.avg_degree = 10.0;
    sc.degree_power = degree_power;
    return graph::sym_normalized(graph::generate_sbm(sc).graph);
  };
  static const graph::CsrGraph serving = make(1.6);
  static const graph::CsrGraph training = make(2.1);
  return width == 32 ? serving : training;
}

void BM_SpmmLadder(benchmark::State& state) {
  const Isa rung = static_cast<Isa>(state.range(0));
  if (!isa_supported(rung)) {
    state.SkipWithError("arm not supported on this host");
    return;
  }
  const auto f = static_cast<std::size_t>(state.range(1));
  const graph::CsrGraph& a = perfbench_operator(f);
  Rng rng(7);
  const Tensor x = Tensor::normal({a.num_nodes(), f}, rng);
  Tensor y({a.num_nodes(), f});
  set_isa_override(rung);
  state.SetLabel(gemm_f32_arm());
  for (auto _ : state) {
    graph::spmm(a, x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  clear_isa_override();
  state.SetItemsProcessed(state.iterations() * a.num_edges());
  state.SetBytesProcessed(state.iterations() * a.num_edges() * f *
                          sizeof(float));
}
BENCHMARK(BM_SpmmLadder)
    ->ArgsProduct({{0, 2, 3}, {32, 256}})
    ->Unit(benchmark::kMillisecond);

// The other side of SGC's training step: one 1,024-row chunk of
// train_sgc_storage's store, 4 hop files of 256-wide fp32 rows (4 MiB),
// read into a batch with read_chunk.  The store holds 16 chunks in a
// mkdtemp directory under /tmp, removed at exit, and they are read in
// turn.  Arg 0 = 0 reads serially (the whole loop runs inside one pool
// task, where read_chunk's io_pool() call stays on its caller), 1 splits
// the hop files across io_pool() (PPGNN_NUM_THREADS=3 sizes it as
// perfbench does on 4 cores).
constexpr std::size_t kStoreHops = 4, kStoreDim = 256, kStoreChunk = 1024,
                      kStoreChunks = 16;

struct ScratchStore {
  std::string dir;
  std::unique_ptr<loader::FeatureFileStore> store;

  ScratchStore() {
    char tmpl[] = "/tmp/bench_kernels_store.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp");
    dir = tmpl;
    Rng rng(8);
    std::vector<Tensor> hops;
    for (std::size_t h = 0; h < kStoreHops; ++h) {
      hops.push_back(
          Tensor::normal({kStoreChunks * kStoreChunk, kStoreDim}, rng));
    }
    store = std::make_unique<loader::FeatureFileStore>(
        loader::FeatureFileStore::create(dir, hops));
  }
  ~ScratchStore() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};

void BM_StoreReadChunk(benchmark::State& state) {
  static const ScratchStore s;
  const bool pooled = state.range(0) != 0;
  Tensor batch({kStoreChunk, kStoreHops * kStoreDim});
  std::size_t chunk = 0;
  const auto loop = [&] {
    for (auto _ : state) {
      s.store->read_chunk(chunk++ % kStoreChunks * kStoreChunk, kStoreChunk,
                          batch);
      benchmark::DoNotOptimize(batch.data());
      benchmark::ClobberMemory();
    }
  };
  if (pooled) {
    loop();
  } else {
    io_pool().parallel_for(1, [&](std::size_t, std::size_t) { loop(); });
  }
  state.SetLabel(pooled ? "pool of " + std::to_string(io_pool().size())
                        : "serial");
  state.SetBytesProcessed(state.iterations() * kStoreChunk * kStoreHops *
                          kStoreDim * sizeof(float));
}
BENCHMARK(BM_StoreReadChunk)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_AssemblyBaseline(benchmark::State& state) {
  Rng rng(2);
  const std::size_t rows = 20000, dim = 400, batch = 512;
  Tensor feats = Tensor::normal({rows, dim}, rng);
  std::vector<std::int32_t> labels(rows, 0);
  loader::BatchSource src(&feats, labels.data(), batch);
  Rng shuffle_rng(3);
  src.set_epoch_order(loader::RandomReshuffler().epoch_order(rows, shuffle_rng));
  std::size_t k = 0;
  for (auto _ : state) {
    auto mb = src.assemble_baseline(k++ % src.num_batches());
    benchmark::DoNotOptimize(mb.features.data());
  }
  state.SetBytesProcessed(state.iterations() * batch * dim * sizeof(float));
}
BENCHMARK(BM_AssemblyBaseline);

void BM_AssemblyFused(benchmark::State& state) {
  Rng rng(2);
  const std::size_t rows = 20000, dim = 400, batch = 512;
  Tensor feats = Tensor::normal({rows, dim}, rng);
  std::vector<std::int32_t> labels(rows, 0);
  loader::BatchSource src(&feats, labels.data(), batch);
  Rng shuffle_rng(3);
  src.set_epoch_order(loader::RandomReshuffler().epoch_order(rows, shuffle_rng));
  std::size_t k = 0;
  for (auto _ : state) {
    auto mb = src.assemble_fused(k++ % src.num_batches());
    benchmark::DoNotOptimize(mb.features.data());
  }
  state.SetBytesProcessed(state.iterations() * batch * dim * sizeof(float));
}
BENCHMARK(BM_AssemblyFused);

void BM_GatherRows(benchmark::State& state) {
  Rng rng(4);
  const std::size_t rows = 50000;
  const auto dim = static_cast<std::size_t>(state.range(0));
  Tensor feats = Tensor::normal({rows, dim}, rng);
  std::vector<std::int64_t> idx(4096);
  for (auto& i : idx) i = static_cast<std::int64_t>(rng.uniform_int(rows));
  Tensor out({idx.size(), dim});
  for (auto _ : state) {
    gather_rows(feats, idx, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * idx.size() * dim *
                          sizeof(float));
}
BENCHMARK(BM_GatherRows)->Arg(64)->Arg(512);

constexpr int kLadderWarmupCalls = 2000;
constexpr int kLadderRounds = 21;
constexpr int kLadderCallsPerRound = 500;

// Self-timed per-ISA GEMM table, appended into the JSON array at `path`
// (created when absent).  Record shape matches bench_serving_latency's
// kernel_ladder section so fleetsim::parse_bench_json reads either
// producer; "source" tells them apart.
int run_ladder_json(const std::string& path) {
  const Isa dispatched = active_isa();
  Rng rng(5);
  const Tensor x = Tensor::normal({kLadderM, kLadderK}, rng, 0.1f, 1.f);
  const Tensor w = Tensor::normal({kLadderN, kLadderK}, rng, 0.f, 1.f);
  const QuantizedActs xq = quantize_acts_per_row(x);

  struct Arm {
    Isa isa;
    QuantizedMatrix wq;
    Tensor c;
    std::vector<double> round_s;
  };
  std::vector<Arm> arms;
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (isa_supported(isa)) arms.push_back({isa, quantize_per_row(w, isa)});
  }
  // The host's rate moves in stretches of seconds, so the arms are timed
  // round by round rather than one after another: a slow stretch then
  // lands on every arm, and each arm's median round shares the others'
  // conditions.  fleetsim reads this table as the arms' rates.
  for (Arm& a : arms) {
    for (int r = 0; r < kLadderWarmupCalls; ++r) gemm_s8_nt(xq, a.wq, a.c);
  }
  for (int round = 0; round < kLadderRounds; ++round) {
    for (Arm& a : arms) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kLadderCallsPerRound; ++r) gemm_s8_nt(xq, a.wq, a.c);
      a.round_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
  }
  std::vector<double> gops(kNumIsa, 0.0);
  for (Arm& a : arms) {
    std::nth_element(a.round_s.begin(), a.round_s.begin() + kLadderRounds / 2,
                     a.round_s.end());
    gops[static_cast<std::size_t>(a.isa)] =
        2.0 * static_cast<double>(kLadderM) * kLadderK * kLadderN *
        kLadderCallsPerRound / a.round_s[kLadderRounds / 2] / 1e9;
  }
  const double sse2_gops = gops[static_cast<std::size_t>(Isa::kSse2)];

  std::vector<std::string> records;
  for (std::size_t i = 0; i < kNumIsa; ++i) {
    const Isa arm = static_cast<Isa>(i);
    char buf[384];
    if (!isa_supported(arm)) {
      std::snprintf(buf, sizeof(buf),
                    "{\"section\":\"kernel_ladder\","
                    "\"source\":\"bench_kernels\",\"isa\":\"%s\","
                    "\"supported\":false,\"active\":false}",
                    isa_name(arm));
      records.emplace_back(buf);
      std::printf("%-12s unsupported\n", isa_name(arm));
      continue;
    }
    const double vs = sse2_gops > 0 ? gops[i] / sse2_gops : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "{\"section\":\"kernel_ladder\","
                  "\"source\":\"bench_kernels\",\"isa\":\"%s\","
                  "\"supported\":true,\"gemm_m\":%zu,\"gemm_k\":%zu,"
                  "\"gemm_n\":%zu,\"gemm_gops\":%.2f,"
                  "\"gemm_speedup_vs_sse2\":%.2f,\"active\":%s}",
                  isa_name(arm), kLadderM, kLadderK, kLadderN, gops[i], vs,
                  arm == dispatched ? "true" : "false");
    records.emplace_back(buf);
    std::printf("%-12s %8.1f Gop/s (%.2fx sse2)%s\n", isa_name(arm), gops[i],
                vs, arm == dispatched ? "  [dispatched]" : "");
  }

  // Splice into the existing array right before its closing bracket so
  // the ladder table lands in the same artifact the serving bench wrote.
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      content = ss.str();
    }
  }
  const auto close = content.rfind(']');
  std::ostringstream out;
  if (close == std::string::npos) {
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      out << "  " << records[i] << (i + 1 < records.size() ? "," : "")
          << "\n";
    }
    out << "]\n";
  } else {
    std::string head = content.substr(0, close);
    while (!head.empty() &&
           (head.back() == '\n' || head.back() == ' ' ||
            head.back() == '\t')) {
      head.pop_back();
    }
    out << head;
    const bool has_records = head.rfind('}') != std::string::npos;
    for (std::size_t i = 0; i < records.size(); ++i) {
      out << (i == 0 && !has_records ? "" : ",") << "\n  " << records[i];
    }
    out << "\n]" << content.substr(close + 1);
  }
  std::ofstream of(path);
  if (!of) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  of << out.str();
  std::printf("appended %zu kernel_ladder records to %s\n", records.size(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ladder-json=", 0) == 0) {
      return run_ladder_json(arg.substr(14));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
