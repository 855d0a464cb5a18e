// The two serving workloads.
//
//  * serve_mem_int8 — an in-process fleet of 2 int8 replicas over
//    MemorySource rows, round_robin routing, single-node envelopes: the
//    front gate (tenant bucket, router), the batcher, ServerStats and the
//    int8 GEMM do the work; storage and the wire do none.
//  * serve_xproc_file_fp32 — 2 replica_server_cli processes over Unix
//    sockets, cache_affinity routing, each over an fp32 FeatureFileStore
//    behind a per-replica LRU of 5% of the rows; 4-node envelopes asking for
//    top-3: the wire, cache probes, pread and row decode dominate.
//
// Both: a 100k-node SBM, Zipf 0.99 traffic, 4 tenants at DWRR weights
// 2:1:1:1 with quotas far above any reachable rate (the buckets and DWRR
// run on every envelope and never refuse), and one load process running 2
// closed-loop client threads with 32 envelopes in flight each.
#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <thread>

#include "core/sign.h"
#include "core/trainer.h"
#include "graph/generator.h"
#include "loader/cache.h"
#include "rpc/buffer.h"
#include "rpc/remote_replica.h"
#include "serve/replica_set.h"
#include "serve/workload.h"
#include "tenancy/tenant.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ppgnn;

constexpr std::size_t kFeatDim = 32;
constexpr std::size_t kHops = 2;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kClasses = 16;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kInflight = 32;  // per client thread
constexpr std::size_t kTopK = 3;
constexpr std::size_t kMaxBatch = 128;
constexpr long kMaxDelayUs = 200;
constexpr double kCacheFraction = 0.05;
constexpr double kSkew = 0.99;
constexpr std::size_t kDeployEpochs = 2;
constexpr std::uint32_t kTenantWeights[] = {2, 1, 1, 1};  // tenants 1..4
// Envelopes cycle through the tenants in proportion to their weights.
constexpr std::uint32_t kTenantMix[] = {1, 1, 2, 3, 4};
// Quota per tenant, parts/s: far above what the fleet reaches, so a later
// speed-up never turns into refusals.
constexpr double kTenantRate = 1e7;
// One in kSpanEvery traced envelopes gets its spans recorded.
constexpr std::uint64_t kSpanEvery = 16;
// One in kSampleEvery measured answers is re-checked against a single
// session, at most kMaxSamples per client thread.
constexpr std::size_t kSampleEvery = 64;
constexpr std::size_t kMaxSamples = 1024;
constexpr double kSliceSeconds = 0.25;
constexpr std::size_t kWindowSlices = 1;  // latency percentile windows
constexpr auto kDrainTimeout = std::chrono::seconds(30);
constexpr std::size_t kStreamLength = std::size_t{1} << 22;

struct ServeSpec {
  bool remote = false;
  serve::Precision precision = serve::Precision::kFp32;
  serve::RoutingPolicy policy = serve::RoutingPolicy::kRoundRobin;
  std::size_t envelope_nodes = 1;
  bool topk = false;
};

ServeSpec spec_of(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve_mem_int8") {
    s.precision = serve::Precision::kInt8;
    s.policy = serve::RoutingPolicy::kRoundRobin;
    s.envelope_nodes = 1;
  } else {
    s.remote = true;
    s.precision = serve::Precision::kFp32;
    s.policy = serve::RoutingPolicy::kCacheAffinity;
    s.envelope_nodes = 4;
    s.topk = true;
  }
  return s;
}

std::unique_ptr<core::PpModel> make_shell() {
  // The architecture replica_server_cli builds for --model=SIGN; weights
  // are overwritten from the checkpoint.
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

enum Phase : int { kWarmup = 0, kPlain = 1, kTraced = 2, kStop = 3 };
constexpr int kMeasuredPhases = 3;

// Failure causes, indexed by serve::ServeStatus value.  Envelopes never
// answered are counted at drain as "lost".
const char* const kCauseNames[] = {"ok",    "draining", "shed",
                                   "deadline", "error", "quota"};
constexpr std::size_t kNumStatus = 6;

struct Sample {
  std::vector<std::int64_t> nodes;
  std::vector<std::vector<float>> logits;
  std::vector<std::vector<serve::TopKEntry>> topk;
};

// What one client thread saw.
struct ClientLog {
  std::array<std::size_t, kMeasuredPhases> attempted{};
  std::array<std::array<std::size_t, kNumStatus>, kMeasuredPhases> status{};
  std::array<std::size_t, kMeasuredPhases> nodes_answered{};
  // Per node: 0 never answered, 1 answered wrong, 2 answered right.
  std::vector<std::uint8_t> verdict;
  // Traced phase only: the per-layer view of every envelope.
  std::vector<float> submit_us, admission_us, dispatch_us, compute_us,
      transport_us;
  // By completion time, in kSliceSeconds slices since the load started.
  struct Slice {
    std::size_t nodes = 0;  // answered
    std::vector<float> latency_us;
  };
  std::vector<Slice> slices;
  std::vector<Sample> samples;
  std::size_t lost = 0;
};

struct Fleet {
  std::unique_ptr<core::Preprocessed> pre;  // MemorySource rows live here
  std::unique_ptr<serve::FleetManager> manager;
  std::vector<std::shared_ptr<rpc::RemoteReplica>> remotes;
};

struct Inputs {
  graph::SbmGraph sbm;
  Tensor x;
  std::vector<std::int64_t> stream;
};

class ServingRun {
 public:
  ServingRun(const Args& args, Record& rec, Tracer& tracer)
      : args_(args), rec_(rec), tracer_(tracer), spec_(spec_of(args.workload)) {
    dir_ = args.dir + "/" + args.workload;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    ckpt_ = dir_ + "/model.ckpt";
    ckpt_fp32_ = dir_ + "/model_fp32.ckpt";
    store_dir_ = dir_ + "/store";
    log_path_ = dir_ + "/replicas.log";
    for (std::uint32_t t = 0; t < 4; ++t) {
      tenancy::TenantContract c;
      c.rate_per_s = kTenantRate;
      c.weight = kTenantWeights[t];
      tenants_.set_contract(t + 1, c);
    }
  }

  void run();

 private:
  void generate();
  void setup();
  std::unique_ptr<serve::FleetManager> build_fleet(std::size_t round);
  void drive();
  void client_loop(std::size_t tid, serve::CompletionQueue& cq,
                   Tracer::Buffer* spans);
  struct WindowView {
    std::vector<double> slice_rates;  // answered nodes/s per slice
    std::vector<double> window_p50, window_p99;  // per latency window
    double mean_latency_us = 0;
    std::size_t latencies = 0;
  };
  WindowView view(int phase) const;
  void report_e2e();
  void report_layers();
  void check_answers();
  std::unique_ptr<serve::InferenceSession> reference_session() const;
  double fleet_rss_mb() const;
  double fleet_peak_rss_mb() const;
  // Mean batch size of the cross-process replicas, from their exit lines.
  double remote_mean_batch() const;

  const Args& args_;
  Record& rec_;
  Tracer& tracer_;
  const ServeSpec spec_;
  std::string dir_, ckpt_, ckpt_fp32_, store_dir_, log_path_;
  tenancy::TenantRegistry tenants_;
  Inputs in_;
  Fleet fleet_;

  // Driving state.
  std::atomic<int> phase_{kWarmup};
  Clock::time_point t0_;
  std::vector<ClientLog> logs_;
  std::array<std::size_t, kMeasuredPhases + 1> phase_slice_{};  // boundaries
  double rss_plain_start_mb_ = 0, rss_plain_end_mb_ = 0;
  double peak_rss_mb_ = 0;
  double mean_batch_ = 0;
  std::size_t quota_refused_ = 0;
  rpc::RpcStats rpc_stats_;
  std::uint32_t n_envelope_ = 0, n_submit_ = 0, n_admission_ = 0,
                n_dispatch_ = 0, n_compute_ = 0;
};

void ServingRun::generate() {
  graph::SbmConfig sc;
  sc.num_nodes = args_.scale.serve_nodes;
  sc.num_classes = kClasses;
  sc.avg_degree = 10.0;
  sc.degree_power = 1.6;
  sc.seed = args_.seed;
  in_.sbm = graph::generate_sbm(sc);
  graph::FeatureConfig fc;
  fc.dim = kFeatDim;
  fc.seed = args_.seed + 1;
  in_.x = graph::generate_features(in_.sbm.labels, kClasses, fc);
  // Each tenant draws Zipf traffic over its own popularity ranking, and
  // envelope e belongs to tenant kTenantMix[e % 5].  With one shared
  // ranking a handful of hot nodes would carry a fifth of the traffic, and
  // where cache_affinity homes them would swing the replicas' load split —
  // and every figure — from seed to seed.
  const std::size_t n = spec_.envelope_nodes;
  const std::size_t length =
      args_.scale.smoke ? kStreamLength / 16 : kStreamLength;
  const std::size_t envelopes = length / n;
  std::vector<std::size_t> draws(std::size(kTenantWeights), 0);
  for (std::size_t e = 0; e < envelopes; ++e) {
    draws[kTenantMix[e % std::size(kTenantMix)] - 1] += n;
  }
  std::vector<std::vector<std::int64_t>> per_tenant;
  for (std::uint32_t t = 0; t < std::size(kTenantWeights); ++t) {
    serve::ZipfWorkloadConfig wc;
    wc.num_nodes = sc.num_nodes;
    wc.num_requests = draws[t];
    wc.skew = kSkew;
    wc.seed = args_.seed * 16 + 2 + t;
    per_tenant.push_back(serve::zipf_stream(wc));
  }
  std::vector<std::size_t> next(per_tenant.size(), 0);
  in_.stream.reserve(envelopes * n);
  for (std::size_t e = 0; e < envelopes; ++e) {
    const std::uint32_t t = kTenantMix[e % std::size(kTenantMix)] - 1;
    for (std::size_t i = 0; i < n; ++i) {
      in_.stream.push_back(per_tenant[t][next[t]++]);
    }
  }
}

std::unique_ptr<serve::FleetManager> ServingRun::build_fleet(
    std::size_t round) {
  serve::FleetConfig fc;
  fc.policy = spec_.policy;
  fc.precision = spec_.precision;
  fc.batch.max_batch_size = kMaxBatch;
  fc.batch.max_delay = std::chrono::microseconds(kMaxDelayUs);
  fc.tenants = &tenants_;
  if (!spec_.remote) {
    const core::Preprocessed* pre = fleet_.pre.get();
    serve::FleetBuilder builder(
        ckpt_, [](std::size_t) { return make_shell(); },
        [pre](std::size_t) {
          return std::make_unique<serve::MemorySource>(*pre);
        },
        spec_.precision);
    return std::make_unique<serve::FleetManager>(std::move(builder),
                                                 kReplicas, fc);
  }
  const std::size_t row_bytes = (kHops + 1) * kFeatDim * sizeof(float);
  const double cache_mb = kCacheFraction *
                          static_cast<double>(args_.scale.serve_nodes) *
                          static_cast<double>(row_bytes) / (1024.0 * 1024.0);
  rpc::ReplicaSpawnConfig scfg;
  // Relative and short: Unix socket paths are limited to ~100 bytes.
  scfg.socket_dir = dir_ + "/s" + std::to_string(round);
  std::filesystem::create_directories(scfg.socket_dir);
  scfg.log_path = log_path_;
  scfg.server_args = {
      "--checkpoint=" + ckpt_,
      "--store=" + store_dir_,
      "--nodes=" + std::to_string(args_.scale.serve_nodes),
      "--model=SIGN",
      "--hops=" + std::to_string(kHops),
      "--feat-dim=" + std::to_string(kFeatDim),
      "--hidden=" + std::to_string(kHidden),
      "--classes=" + std::to_string(kClasses),
      "--precision=fp32",
      "--max-batch=" + std::to_string(kMaxBatch),
      "--max-delay-us=" + std::to_string(kMaxDelayUs),
      "--cache=lru",
      "--cache-mb=" + std::to_string(cache_mb),
  };
  auto* remotes = &fleet_.remotes;
  return std::make_unique<serve::FleetManager>(
      [scfg, remotes](std::size_t ordinal) {
        std::string err;
        auto rep = rpc::spawn_replica_process(scfg, ordinal, &err);
        if (!rep) {
          std::fprintf(stderr, "perfbench: spawn replica %zu failed: %s\n",
                       ordinal, err.c_str());
          return rep;
        }
        remotes->push_back(rep);
        return rep;
      },
      kReplicas, fc);
}

// Set-up: core::precompute, FeatureFileStore::create (file-backed workload)
// and FleetManager construction — checkpoint load, int8 quantize, replica
// spawn plus handshake — repeated, keeping the last round's fleet.  The
// deployed model is trained once after the first precompute; that is the
// workload generator's job and is not timed.
void ServingRun::setup() {
  std::vector<double> total, pre_s, store_s, fleet_s;
  const std::size_t rounds = args_.scale.setup_rounds_serve;
  for (std::size_t r = 0; r < rounds; ++r) {
    // The previous round's fleet goes first: its sessions read `pre`.
    if (fleet_.manager) fleet_.manager->stop();
    fleet_.manager.reset();
    fleet_.remotes.clear();
    fleet_.pre.reset();
    core::PrecomputeConfig pc;
    pc.hops = kHops;
    const auto t0 = Clock::now();
    fleet_.pre = std::make_unique<core::Preprocessed>(
        core::precompute(in_.sbm.graph, in_.x, pc));
    const auto t1 = Clock::now();
    if (r == 0) {
      auto model = make_shell();
      core::quick_train(*model, *fleet_.pre, in_.sbm.labels, kDeployEpochs);
      serve::save_deployed_model(*model, ckpt_fp32_);
      serve::save_deployed_model(*model, ckpt_, spec_.precision);
    }
    double store = 0;
    if (spec_.remote) {
      const auto ts = Clock::now();
      loader::FeatureFileStore::create(store_dir_, fleet_.pre->hop_features,
                                       loader::RowCodec::kFp32);
      store = seconds_between(ts, Clock::now());
    }
    const auto tf = Clock::now();
    fleet_.manager = build_fleet(r);
    const double build = seconds_between(tf, Clock::now());
    rec_.attempt("setup");
    if (fleet_.manager->num_replicas() != kReplicas) {
      rec_.failure("setup", "error");
      rec_.incorrect("fleet came up with " +
                     std::to_string(fleet_.manager->num_replicas()) +
                     " replicas");
    }
    const double pre = seconds_between(t0, t1);
    pre_s.push_back(pre);
    store_s.push_back(store);
    fleet_s.push_back(build);
    total.push_back(pre + store + build);
  }
  rec_.metric("setup_s", median(total), "s", total.size());
  rec_.metric("setup.precompute_s", median(pre_s), "s", pre_s.size());
  rec_.metric("setup.store_create_s", median(store_s), "s", store_s.size());
  rec_.metric("setup.fleet_build_s", median(fleet_s), "s", fleet_s.size());
}

void ServingRun::client_loop(std::size_t tid, serve::CompletionQueue& cq,
                             Tracer::Buffer* spans) {
  ClientLog& log = logs_[tid];
  const std::size_t n = spec_.envelope_nodes;
  const auto& stream = in_.stream;
  const std::size_t envelopes = stream.size() / n;
  std::size_t envelope = envelopes / kClients * tid;
  std::uint64_t seq = 0;

  struct Slot {
    std::array<std::int64_t, 4> nodes{};
    Clock::time_point t_submit{}, t_submitted{};
    int phase = kWarmup;
  };
  std::array<Slot, kInflight> slots;
  std::size_t inflight = 0;

  const auto submit = [&](std::size_t slot, int phase) {
    serve::ServeRequest req;
    req.id = seq * kInflight + slot;
    ++seq;
    req.tenant = kTenantMix[envelope % std::size(kTenantMix)];
    req.nodes.assign(stream.begin() + static_cast<std::ptrdiff_t>(envelope * n),
                     stream.begin() +
                         static_cast<std::ptrdiff_t>((envelope + 1) * n));
    std::copy(req.nodes.begin(), req.nodes.end(), slots[slot].nodes.begin());
    envelope = (envelope + 1) % envelopes;
    if (spec_.topk) {
      req.mode = serve::ResultMode::kTopK;
      req.topk = kTopK;
    }
    slots[slot].phase = phase;
    slots[slot].t_submit = Clock::now();
    fleet_.manager->submit(std::move(req), cq);
    slots[slot].t_submitted = Clock::now();
    log.attempted[static_cast<std::size_t>(phase)] += 1;
    ++inflight;
  };

  for (std::size_t s = 0; s < kInflight; ++s) submit(s, phase_.load());
  Clock::time_point drain_deadline = Clock::time_point::max();
  serve::ServeResponse r;
  while (inflight > 0) {
    if (!cq.wait_for(&r, std::chrono::milliseconds(100))) {
      if (phase_.load() == kStop) {
        if (drain_deadline == Clock::time_point::max()) {
          drain_deadline = Clock::now() + kDrainTimeout;
        } else if (Clock::now() > drain_deadline) {
          break;
        }
      }
      continue;
    }
    const auto t_done = Clock::now();
    --inflight;
    const std::size_t slot_i = r.id % kInflight;
    const Slot& slot = slots[slot_i];
    const auto ph = static_cast<std::size_t>(slot.phase);
    const auto st = static_cast<std::size_t>(r.status);
    log.status[ph][st < kNumStatus ? st : 4] += 1;
    const double lat = us_between(slot.t_submit, t_done);
    const std::size_t slice = static_cast<std::size_t>(
        seconds_between(t0_, t_done) / kSliceSeconds);
    if (slice >= log.slices.size()) log.slices.resize(slice + 1);
    log.slices[slice].latency_us.push_back(static_cast<float>(lat));
    if (r.status == serve::ServeStatus::kOk) {
      log.slices[slice].nodes += n;
      log.nodes_answered[ph] += n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t predicted =
            spec_.topk ? r.topk[i].front().cls
                       : static_cast<std::int32_t>(
                             std::max_element(r.logits[i].begin(),
                                              r.logits[i].end()) -
                             r.logits[i].begin());
        const auto node = static_cast<std::size_t>(slot.nodes[i]);
        log.verdict[node] = predicted == in_.sbm.labels[node] ? 2 : 1;
      }
      if (ph != kWarmup && log.samples.size() < kMaxSamples &&
          (r.id / kInflight) % kSampleEvery == 0) {
        Sample s;
        s.nodes.assign(slot.nodes.begin(), slot.nodes.begin() + n);
        s.logits = std::move(r.logits);
        s.topk = std::move(r.topk);
        log.samples.push_back(std::move(s));
      }
    }
    if (ph == kTraced) {
      const auto& t = r.timings;
      const double submit_us = us_between(slot.t_submit, slot.t_submitted);
      log.submit_us.push_back(static_cast<float>(submit_us));
      log.admission_us.push_back(static_cast<float>(t.admission_wait_us));
      log.dispatch_us.push_back(static_cast<float>(t.dispatch_delay_us));
      log.compute_us.push_back(static_cast<float>(t.compute_us));
      log.transport_us.push_back(static_cast<float>(lat - t.total_us()));
      if (spans && r.id % kSpanEvery == 0) {
        const std::uint64_t trace = (tid << 48) | r.id;
        const std::uint64_t root =
            spans->add(n_envelope_, trace, 0, slot.t_submit, t_done);
        spans->add(n_submit_, trace, root, slot.t_submit, slot.t_submitted);
        // Stage timings are durations measured by the replica; they are
        // laid end to end after the submit returned.
        const auto us = [](double v) {
          return std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::micro>(v));
        };
        auto a = slot.t_submitted;
        auto b = a + us(t.admission_wait_us);
        spans->add(n_admission_, trace, root, a, b);
        a = b;
        b = a + us(t.dispatch_delay_us);
        spans->add(n_dispatch_, trace, root, a, b);
        a = b;
        b = a + us(t.compute_us);
        spans->add(n_compute_, trace, root, a, b);
      }
    }
    const int now_phase = phase_.load();
    if (now_phase != kStop) submit(slot_i, now_phase);
  }
  log.lost = inflight;
}

void ServingRun::drive() {
  const double warm = args_.scale.warmup_seconds;
  const double measure = args_.seconds;
  // Trace runs split the window: an untraced half (the baseline the
  // overhead and reconciliation records compare against) then a traced
  // half.
  const double plain = args_.trace ? measure / 2 : measure;
  const double traced = args_.trace ? measure / 2 : 0;

  logs_.assign(kClients, ClientLog{});
  for (ClientLog& log : logs_) log.verdict.assign(args_.scale.serve_nodes, 0);
  std::vector<std::unique_ptr<serve::CompletionQueue>> queues;
  std::vector<Tracer::Buffer*> buffers;
  for (std::size_t i = 0; i < kClients; ++i) {
    queues.push_back(std::make_unique<serve::CompletionQueue>());
    buffers.push_back(args_.trace ? &tracer_.new_buffer() : nullptr);
  }
  const auto slices = [](double s) {
    return static_cast<std::size_t>(std::lround(s / kSliceSeconds));
  };
  phase_slice_[0] = 0;
  phase_slice_[1] = slices(warm);
  phase_slice_[2] = phase_slice_[1] + slices(plain);
  phase_slice_[3] = phase_slice_[2] + slices(traced);
  const auto at = [&](std::size_t slice) {
    return t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(slice * kSliceSeconds));
  };

  phase_.store(kWarmup);
  t0_ = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [this, i, &queues, &buffers] { client_loop(i, *queues[i], buffers[i]); });
  }
  std::this_thread::sleep_until(at(phase_slice_[1]));
  rss_plain_start_mb_ = fleet_rss_mb();
  phase_.store(kPlain);
  std::this_thread::sleep_until(at(phase_slice_[2]));
  rss_plain_end_mb_ = fleet_rss_mb();
  if (args_.trace) {
    phase_.store(kTraced);
    std::this_thread::sleep_until(at(phase_slice_[3]));
  }
  phase_.store(kStop);
  for (auto& t : clients) t.join();

  peak_rss_mb_ = fleet_peak_rss_mb();
  quota_refused_ = fleet_.manager->quota_refused_total();
  mean_batch_ = fleet_.manager->aggregate_mean_batch_size();
  rpc_stats_ = fleet_.manager->aggregate_rpc_stats();
  // Stopping drains admitted work into the still-alive queues.
  fleet_.manager->stop();
  if (spec_.remote) mean_batch_ = remote_mean_batch();

  for (int ph = 0; ph < kMeasuredPhases; ++ph) {
    const std::string name = ph == kWarmup ? "warmup"
                             : ph == kPlain ? "measure"
                                            : "traced";
    if (ph == kTraced && !args_.trace) continue;
    for (const ClientLog& log : logs_) {
      rec_.attempt(name, log.attempted[ph]);
      for (std::size_t st = 1; st < kNumStatus; ++st) {
        rec_.failure(name, kCauseNames[st], log.status[ph][st]);
      }
    }
  }
  std::size_t lost = 0;
  for (const ClientLog& log : logs_) lost += log.lost;
  if (lost) {
    rec_.failure("drain", "lost", lost);
    rec_.incorrect(std::to_string(lost) + " envelopes missing at drain");
  }
}

double ServingRun::fleet_rss_mb() const {
  double mb = rss_mb();
  for (const auto& r : fleet_.remotes) mb += rss_mb(r->pid());
  return mb;
}

double ServingRun::fleet_peak_rss_mb() const {
  // Only the serving fleet's replicas: earlier set-up rounds' processes are
  // gone (and were never loaded).
  double mb = peak_rss_mb();
  for (const auto& r : fleet_.remotes) {
    if (r->alive()) mb += peak_rss_mb(r->pid());
  }
  return mb;
}

double ServingRun::remote_mean_batch() const {
  // replica_server_cli's exit line: "... exiting rc=0 (A admitted, S shed,
  // B batches)".  Only the final fleet's pids count.
  std::ifstream in(log_path_);
  const std::regex re(
      R"(pid (\d+) exiting rc=-?\d+ \((\d+) admitted, \d+ shed, (\d+) batches\))");
  std::string line;
  double parts = 0, batches = 0;
  while (std::getline(in, line)) {
    std::smatch m;
    if (!std::regex_search(line, m, re)) continue;
    const pid_t pid = static_cast<pid_t>(std::stol(m[1]));
    for (const auto& r : fleet_.remotes) {
      if (r->pid() == pid) {
        parts += std::stod(m[2]);
        batches += std::stod(m[3]);
      }
    }
  }
  return batches > 0 ? parts / batches : 0;
}

std::unique_ptr<serve::InferenceSession> ServingRun::reference_session()
    const {
  const core::Preprocessed* pre = fleet_.pre.get();
  const std::string store = store_dir_;
  const std::size_t nodes = args_.scale.serve_nodes;
  const bool remote = spec_.remote;
  serve::FleetBuilder builder(
      ckpt_, [](std::size_t) { return make_shell(); },
      [pre, store, nodes, remote](
          std::size_t) -> std::unique_ptr<serve::FeatureSource> {
        if (!remote) return std::make_unique<serve::MemorySource>(*pre);
        return std::make_unique<serve::FileStoreSource>(
            loader::FeatureFileStore::open(store, nodes, kHops + 1, kFeatDim,
                                           loader::RowCodec::kFp32));
      },
      spec_.precision);
  return builder.build(0);
}

// The ROADMAP contract that N replicas answer exactly like one session: a
// sample of every run's answers must be bit-identical to a direct
// infer_nodes on the same nodes.
void ServingRun::check_answers() {
  auto session = reference_session();
  std::size_t checked = 0, mismatched = 0;
  for (const ClientLog& log : logs_) {
    for (const Sample& s : log.samples) {
      const Tensor ref = session->infer_nodes(s.nodes);
      for (std::size_t i = 0; i < s.nodes.size(); ++i) {
        bool same = false;
        if (spec_.topk) {
          const auto want = serve::topk_of_row(ref.row(i), ref.cols(), kTopK);
          same = want.size() == s.topk[i].size() &&
                 std::memcmp(want.data(), s.topk[i].data(),
                             want.size() * sizeof(serve::TopKEntry)) == 0;
        } else {
          same = s.logits[i].size() == ref.cols() &&
                 std::memcmp(s.logits[i].data(), ref.row(i),
                             ref.cols() * sizeof(float)) == 0;
        }
        if (!same) ++mismatched;
      }
      ++checked;
    }
  }
  rec_.attempt("check", checked);
  rec_.failure("check", "mismatch", mismatched);
  rec_.info("checked_envelopes", static_cast<double>(checked));
  if (checked == 0) rec_.incorrect("no answers sampled for the check");
  if (mismatched) {
    rec_.incorrect(std::to_string(mismatched) +
                   " sampled answers differ from a single session");
  }
}

// The measured window seen through fixed completion-time slices.  Other
// tenants of a shared host slow the load in episodes of a few seconds; a
// median over slices (throughput) and over half-second windows (latency
// percentiles) keeps an episode that covers a minority of the window out
// of the figure, where one pooled number would absorb it.
ServingRun::WindowView ServingRun::view(int phase) const {
  WindowView v;
  const std::size_t lo = phase_slice_[static_cast<std::size_t>(phase)];
  const std::size_t hi = phase_slice_[static_cast<std::size_t>(phase) + 1];
  double sum = 0;
  std::vector<double> window;
  for (std::size_t s = lo; s < hi; ++s) {
    std::size_t answered = 0;
    for (const ClientLog& log : logs_) {
      if (s >= log.slices.size()) continue;
      answered += log.slices[s].nodes;
      for (const float x : log.slices[s].latency_us) {
        window.push_back(x);
        sum += x;
      }
    }
    v.slice_rates.push_back(static_cast<double>(answered) / kSliceSeconds);
    if ((s - lo + 1) % kWindowSlices == 0 || s + 1 == hi) {
      v.latencies += window.size();
      v.window_p50.push_back(percentile(window, 50));
      v.window_p99.push_back(percentile(window, 99));
      window.clear();
    }
  }
  v.mean_latency_us = v.latencies ? sum / static_cast<double>(v.latencies) : 0;
  return v;
}

void ServingRun::report_e2e() {
  const WindowView v = view(kPlain);
  // Top-1 over the distinct nodes answered: a traffic-weighted figure would
  // hang on the handful of Zipf-hot nodes.
  std::size_t nodes = 0, hits = 0;
  for (std::size_t i = 0; i < args_.scale.serve_nodes; ++i) {
    std::uint8_t v = 0;
    for (const ClientLog& log : logs_) v = std::max(v, log.verdict[i]);
    nodes += v != 0;
    hits += v == 2;
  }
  const double nodes_per_s = median(v.slice_rates);
  rec_.metric("nodes_per_s", nodes_per_s, "1/s", v.slice_rates.size());
  rec_.metric("p50_us", median(v.window_p50), "us", v.latencies);
  rec_.metric("p99_us", median(v.window_p99), "us", v.latencies);
  // An inference epoch: answering as many nodes as the graph holds.
  rec_.metric("epoch_s",
              nodes_per_s > 0
                  ? static_cast<double>(args_.scale.serve_nodes) / nodes_per_s
                  : 0,
              "s", v.slice_rates.size());
  rec_.metric("peak_rss_mb", peak_rss_mb_, "MB", 1);
  rec_.metric("accuracy",
              nodes ? static_cast<double>(hits) / static_cast<double>(nodes)
                    : 0,
              "frac", nodes);
  rec_.info("mean_latency_us", v.mean_latency_us);
  rec_.info("slice_rate_p10", percentile(v.slice_rates, 10));
  rec_.info("slice_rate_p90", percentile(v.slice_rates, 90));
}

void ServingRun::report_layers() {
  std::vector<float> submit, adm, disp, comp, transport;
  std::size_t parts_plain = 0;
  for (const ClientLog& log : logs_) {
    submit.insert(submit.end(), log.submit_us.begin(), log.submit_us.end());
    adm.insert(adm.end(), log.admission_us.begin(), log.admission_us.end());
    disp.insert(disp.end(), log.dispatch_us.begin(), log.dispatch_us.end());
    comp.insert(comp.end(), log.compute_us.begin(), log.compute_us.end());
    transport.insert(transport.end(), log.transport_us.begin(),
                     log.transport_us.end());
    parts_plain += log.nodes_answered[kPlain];
  }
  rec_.metric("serve.submit_us", median(as_doubles(submit)), "us",
              submit.size());
  rec_.metric("serve.admission_wait_us", median(as_doubles(adm)), "us",
              adm.size());
  rec_.metric("serve.dispatch_delay_us", median(as_doubles(disp)), "us",
              disp.size());
  rec_.metric("serve.compute_us", median(as_doubles(comp)), "us", comp.size());
  rec_.metric("serve.batch_size", mean_batch_, "parts", 1);
  rec_.metric("serve.rss_per_mparts_mb",
              parts_plain ? (rss_plain_end_mb_ - rss_plain_start_mb_) /
                                (static_cast<double>(parts_plain) / 1e6)
                          : 0,
              "MB/Mparts", parts_plain);
  rec_.metric("tenancy.quota_refused", static_cast<double>(quota_refused_),
              "count", 1);
  if (spec_.remote) {
    rec_.metric("rpc.transport_us", median(as_doubles(transport)), "us",
                transport.size());
    rec_.metric("rpc.frames_per_writev", rpc_stats_.frames_per_writev(),
                "frames", rpc_stats_.writev_calls);
    rec_.metric("rpc.bytes_per_syscall", rpc_stats_.bytes_per_syscall(), "B",
                rpc_stats_.writev_calls);
    rec_.metric("rpc.pool_hit_rate", rpc_stats_.pool_hit_rate(), "frac",
                rpc_stats_.pool_hits + rpc_stats_.pool_misses);
    rec_.metric("rpc.allocs_per_frame", rpc_stats_.allocs_per_frame(),
                "count", rpc_stats_.frames_enqueued);
  }

  // Reconciliation: the layers measured on an envelope's blocking path
  // (front gate on the client, then the replica's admission wait, dispatch
  // delay and compute) against the untraced mean envelope latency.  What
  // is left over — completion hand-off and client wake-up, plus the wire
  // for the cross-process fleet — is reported as the gap.
  const auto self = tracer_.self_times();
  double layers = 0;
  for (const char* name : {"serve.submit", "serve.admission_wait",
                           "serve.dispatch_delay", "serve.compute"}) {
    const auto it = self.find(name);
    if (it != self.end()) layers += it->second.mean_us();
  }
  const WindowView plain = view(kPlain);
  const WindowView traced = view(kTraced);
  const double e2e = plain.mean_latency_us;
  rec_.metric("reconcile.layers_us", layers, "us",
              self.count("client.envelope") ? self.at("client.envelope").count
                                            : 0);
  rec_.metric("reconcile.e2e_us", e2e, "us", plain.latencies);
  rec_.metric("reconcile.gap_frac", e2e > 0 ? (e2e - layers) / e2e : 0,
              "frac", 1);
  rec_.metric("trace.overhead_frac",
              e2e > 0 ? (traced.mean_latency_us - e2e) / e2e : 0, "frac",
              traced.latencies);
}

void ServingRun::run() {
  n_envelope_ = tracer_.name_id("client.envelope");
  n_submit_ = tracer_.name_id("serve.submit");
  n_admission_ = tracer_.name_id("serve.admission_wait");
  n_dispatch_ = tracer_.name_id("serve.dispatch_delay");
  n_compute_ = tracer_.name_id("serve.compute");

  generate();
  setup();
  drive();
  check_answers();
  report_e2e();
  if (!args_.trace) return;
  report_layers();

  // Replays at the workload's mean batch size, on its own inputs.
  const auto batch_rows = static_cast<std::size_t>(
      std::max(1.0, std::round(mean_batch_)));
  const std::vector<std::int64_t> first(
      in_.stream.begin(),
      in_.stream.begin() + static_cast<std::ptrdiff_t>(batch_rows));
  replay_nn([] { return make_shell(); }, ckpt_fp32_,
            fleet_.pre->expanded_rows(first), rec_);
  if (!spec_.remote) {
    serve::MemorySource source(*fleet_.pre);
    replay_gather(source, nullptr, nullptr, in_.stream, batch_rows, rec_);
    return;
  }
  const std::size_t row_bytes = (kHops + 1) * kFeatDim * sizeof(float);
  const auto open_store = [&] {
    return loader::FeatureFileStore::open(store_dir_, args_.scale.serve_nodes,
                                          kHops + 1, kFeatDim,
                                          loader::RowCodec::kFp32);
  };
  serve::CachedSource cached(
      std::make_unique<serve::FileStoreSource>(open_store()),
      std::make_unique<loader::LruCache>(
          static_cast<std::size_t>(kCacheFraction *
                                   static_cast<double>(
                                       args_.scale.serve_nodes)) *
              row_bytes,
          row_bytes));
  const auto& store =
      static_cast<const serve::FileStoreSource&>(cached.backing()).store();
  replay_gather(cached, &cached, &store, in_.stream, batch_rows, rec_);
  replay_rpc_codec(in_.stream, spec_.envelope_nodes, kClasses, rec_);
}

}  // namespace

void run_serving(const Args& args, Record& rec, Tracer& tracer) {
  ServingRun(args, rec, tracer).run();
}

}  // namespace perfbench
