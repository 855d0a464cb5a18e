// replica_server_cli: one PP-GNN replica in its own process, serving
// ServeRequest envelopes over ppgnn-wire (docs/wire-protocol.md).
//
// This is the server half of the cross-process fleet: a front
// (FleetManager built with a RemoteSpawnFn — serve_cli --remote-replicas)
// spawns one of these per replica, handshakes on the socket, and routes
// envelope sub-batches to it.  The process loads the deployed checkpoint,
// opens the shared FeatureFileStore, and serves through a real
// MicroBatcher — admission control, priority classes and deadline shedding
// behave exactly as in-process.
//
// Lifecycle: serves until SIGTERM/SIGINT, then drains — admitted work is
// answered and flushed, new requests bounce kDraining (the front
// re-routes them) — and exits 0.  See docs/operations.md for the rolling
// restart / crash recovery runbook.
//
//   ./replica_server_cli --socket=unix:/tmp/r0.sock \
//       --checkpoint=/path/model.ckpt --store=/path/store --nodes=100000 \
//       [--model=SIGN] [--hops=2] [--feat-dim=32] [--hidden=32]
//       [--classes=16] [--precision=fp32|int8] [--cache=none|lru]
//       [--cache-mb=16] [--max-batch=256] [--max-delay-us=200]
//       [--shed-budget-ms=0] [--drain-timeout-ms=10000]
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/sgc.h"
#include "core/sign.h"
#include "loader/cache.h"
#include "loader/storage.h"
#include "rpc/server.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "tensor/rng.h"

using namespace ppgnn;

namespace {

std::atomic<int> g_stop{0};  // lock-free: see ReplicaServer::run
void on_signal(int) { g_stop.store(1); }

struct Args {
  std::string socket;      // unix:/path or tcp:host:port (required)
  std::string checkpoint;  // deployed model checkpoint (required)
  std::string store;       // FeatureFileStore directory (required)
  std::size_t nodes = 0;   // rows in the store (required)
  std::string model = "SIGN";
  std::size_t hops = 2;
  std::size_t feat_dim = 32;
  std::size_t hidden = 32;
  std::size_t classes = 16;
  std::string precision = "fp32";
  std::string cache = "none";  // none | lru
  double cache_mb = 16.0;
  std::size_t max_batch = 256;
  long max_delay_us = 200;
  double shed_budget_ms = 0.0;
  long drain_timeout_ms = 10000;
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "replica_server_cli: serve one PP-GNN replica over ppgnn-wire\n"
      "  --socket=ADDR          unix:/path or tcp:host:port (required)\n"
      "  --checkpoint=PATH      deployed model checkpoint (required)\n"
      "  --store=DIR            FeatureFileStore directory (required)\n"
      "  --nodes=N              rows in the store (required)\n"
      "  --model=SGC|SIGN       architecture shell (default SIGN)\n"
      "  --hops=K --feat-dim=D --hidden=H --classes=C   model shape\n"
      "  --precision=fp32|int8  must match the checkpoint and store codec\n"
      "  --cache=none|lru       server-side row cache over the store\n"
      "  --cache-mb=M           cache byte budget (default 16)\n"
      "  --max-batch=N --max-delay-us=U --shed-budget-ms=B   batching\n"
      "  --drain-timeout-ms=T   SIGTERM drain budget (default 10000)\n"
      "  --help                 this text\n");
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "bad arg: %s (use --key=value)\n", arg.c_str());
      std::exit(2);
    }
    const auto eq = arg.find('=');
    std::string k, v;
    if (eq != std::string::npos) {
      k = arg.substr(2, eq - 2);
      v = arg.substr(eq + 1);
    } else {
      k = arg.substr(2);
      if (i + 1 < argc && argv[i + 1][0] != '-') v = argv[++i];
    }
    std::replace(k.begin(), k.end(), '-', '_');
    try {
      if (k == "socket") a.socket = v;
      else if (k == "checkpoint") a.checkpoint = v;
      else if (k == "store") a.store = v;
      else if (k == "nodes") a.nodes = std::stoul(v);
      else if (k == "model") a.model = v;
      else if (k == "hops") a.hops = std::stoul(v);
      else if (k == "feat_dim") a.feat_dim = std::stoul(v);
      else if (k == "hidden") a.hidden = std::stoul(v);
      else if (k == "classes") a.classes = std::stoul(v);
      else if (k == "precision") a.precision = v;
      else if (k == "cache") a.cache = v;
      else if (k == "cache_mb") a.cache_mb = std::stod(v);
      else if (k == "max_batch") a.max_batch = std::stoul(v);
      else if (k == "max_delay_us") a.max_delay_us = std::stol(v);
      else if (k == "shed_budget_ms") a.shed_budget_ms = std::stod(v);
      else if (k == "drain_timeout_ms") a.drain_timeout_ms = std::stol(v);
      else {
        std::fprintf(stderr, "unknown flag: --%s\n", k.c_str());
        usage(stderr);
        std::exit(2);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", k.c_str(), v.c_str());
      std::exit(2);
    }
  }
  if (a.socket.empty() || a.checkpoint.empty() || a.store.empty() ||
      a.nodes == 0) {
    std::fprintf(stderr,
                 "--socket, --checkpoint, --store and --nodes are required\n");
    usage(stderr);
    std::exit(2);
  }
  if (a.cache != "none" && a.cache != "lru") {
    std::fprintf(stderr, "unknown --cache=%s (none|lru)\n", a.cache.c_str());
    std::exit(2);
  }
  return a;
}

std::unique_ptr<core::PpModel> make_shell(const Args& a) {
  // Same shells ServingTestbed stamps out; weights are overwritten from
  // the checkpoint, so the init seed is irrelevant.
  Rng rng(7);
  if (a.model == "SGC") {
    return std::make_unique<core::Sgc>(a.feat_dim, a.hops, a.classes, rng);
  }
  if (a.model == "SIGN") {
    core::SignConfig sc;
    sc.feat_dim = a.feat_dim;
    sc.hops = a.hops;
    sc.hidden = a.hidden;
    sc.classes = a.classes;
    sc.mlp_layers = 2;
    sc.dropout = 0.f;
    return std::make_unique<core::Sign>(sc, rng);
  }
  std::fprintf(stderr, "unknown --model=%s (SGC|SIGN)\n", a.model.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  serve::Precision prec;
  if (!serve::parse_precision(a.precision, &prec)) {
    std::fprintf(stderr, "unknown --precision=%s (fp32|int8)\n",
                 a.precision.c_str());
    return 2;
  }

  std::unique_ptr<serve::InferenceSession> session;
  try {
    const loader::RowCodec codec = prec == serve::Precision::kInt8
                                       ? loader::RowCodec::kInt8
                                       : loader::RowCodec::kFp32;
    auto source = std::make_unique<serve::FileStoreSource>(
        loader::FeatureFileStore::open(a.store, a.nodes, a.hops + 1,
                                       a.feat_dim, codec));
    std::unique_ptr<serve::FeatureSource> features = std::move(source);
    if (a.cache == "lru") {
      const std::size_t row_bytes =
          static_cast<serve::FileStoreSource*>(features.get())
              ->store()
              .row_bytes();
      const auto budget = static_cast<std::size_t>(a.cache_mb * 1024 * 1024);
      features = std::make_unique<serve::CachedSource>(
          std::move(features),
          std::make_unique<loader::LruCache>(budget, row_bytes));
    }
    // FleetBuilder handles the precision-specific load path (int8
    // checkpoints quantize on load) exactly as an in-process fleet would.
    serve::FleetBuilder builder(
        a.checkpoint, [&a](std::size_t) { return make_shell(a); },
        [&features](std::size_t) { return std::move(features); }, prec);
    session = builder.build(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replica_server: failed to load artifacts: %s\n",
                 e.what());
    return 1;
  }

  rpc::ReplicaServerConfig cfg;
  cfg.address = a.socket;
  cfg.batch.max_batch_size = a.max_batch;
  cfg.batch.max_delay = std::chrono::microseconds(a.max_delay_us);
  cfg.batch.shed_budget = std::chrono::microseconds(
      static_cast<long>(a.shed_budget_ms * 1000.0));
  cfg.drain_timeout = std::chrono::milliseconds(a.drain_timeout_ms);

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::printf("replica_server: pid %d serving %s at %s (%s, %zu nodes)\n",
              ::getpid(), a.model.c_str(), a.socket.c_str(),
              serve::precision_name(prec), a.nodes);
  std::fflush(stdout);
  rpc::ReplicaServer server(std::move(session), cfg);
  const int rc = server.run(&g_stop);
  const auto& st = server.stats();
  std::printf("replica_server: pid %d exiting rc=%d (%zu admitted, %zu shed, "
              "%zu batches)\n",
              ::getpid(), rc, st.admission().admitted, st.admission().shed,
              st.batches());
  // Per-tenant breakdown (src/tenancy/): the wire carries the tenant id on
  // v2 requests, so a remote replica can report the same slices a local
  // one does.  Skipped when everything was the default tenant — the
  // untenanted log shape is unchanged.  CI's crossproc leg greps these
  // lines into tenant-stats.txt.
  const auto tenant_rows = st.tenant_stats();
  if (tenant_rows.size() > 1 ||
      (tenant_rows.size() == 1 && tenant_rows[0].tenant != 0)) {
    for (const auto& t : tenant_rows) {
      std::printf("replica_server: tenant %u admitted=%zu shed=%zu "
                  "samples=%zu p50_us=%.0f p99_us=%.0f\n",
                  t.tenant, t.admitted, t.rejected + t.shed, t.samples,
                  t.p50_us, t.p99_us);
    }
  }
  // Server-side half of the transport evidence; the front logs the client
  // half.  This lands in the log artifact CI uploads on smoke failure.
  const rpc::RpcStats& rs = server.rpc_stats();
  if (rs.frames_sent > 0) {
    std::printf("replica_server: rpc fast path frames=%llu writev=%llu "
                "frames/writev=%.2f bytes/syscall=%.0f pool-hit=%.1f%% "
                "allocs/frame=%.4f\n",
                static_cast<unsigned long long>(rs.frames_sent),
                static_cast<unsigned long long>(rs.writev_calls),
                rs.frames_per_writev(), rs.bytes_per_syscall(),
                100 * rs.pool_hit_rate(), rs.allocs_per_frame());
  }
  return rc;
}
