// Cross-process serving (src/rpc/): the RpcClient/ReplicaServer loopback,
// reconnect and bounded-backoff behavior, replica process lifecycle
// (spawn/handshake/drain/reap), and the tentpole proof — a kill -9 on a
// replica in the middle of an 8-thread envelope storm loses ZERO
// completions: every submitted envelope gets exactly one response, the
// dead process is reaped with the SIGKILL code, and the fleet keeps
// serving on the survivor.
//
// Determinism strategy: no timing assertions anywhere — only counts
// (submitted == delivered), exact-once id accounting, bit-identity of
// logits against a reference in-process session, and process exit codes.
// Sanitizer slowdown stretches wall time but cannot flip any of those.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rpc/client.h"
#include "rpc/process.h"
#include "rpc/remote_replica.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "serve/replica_set.h"
#include "serve/serve_api.h"
#include "serve/testbed.h"

namespace ppgnn::rpc {
namespace {

using serve::ServeStatus;

// One shared testbed for the whole binary: generating + training the
// deployment artifacts once keeps the suite fast; every test reads the
// same on-disk checkpoint + store, which is exactly the cross-process
// deployment model (N server processes over one artifact set).
serve::ServingTestbed& testbed() {
  static serve::ServingTestbed* tb = [] {
    serve::TestbedConfig cfg;
    cfg.nodes = 2000;
    cfg.feat_dim = 16;
    cfg.classes = 8;
    cfg.hops = 2;
    cfg.hidden = 16;
    cfg.train_epochs = 1;
    cfg.create_store = true;
    return new serve::ServingTestbed(cfg);
  }();
  return *tb;
}

// The replica_server_cli flags that point a child process at the testbed's
// artifacts.
std::vector<std::string> server_args() {
  const auto& c = testbed().config();
  return {"--checkpoint=" + testbed().checkpoint(),
          "--store=" + testbed().store_dir(),
          "--nodes=" + std::to_string(c.nodes),
          "--model=" + c.model,
          "--hops=" + std::to_string(c.hops),
          "--feat-dim=" + std::to_string(c.feat_dim),
          "--hidden=" + std::to_string(c.hidden),
          "--classes=" + std::to_string(c.classes),
          "--max-delay-us=100"};
}

ReplicaSpawnConfig spawn_config(const std::string& tag) {
  ReplicaSpawnConfig cfg;
  cfg.socket_dir = testbed().dir();
  cfg.log_path = testbed().dir() + "/server-" + tag + ".log";
  cfg.server_args = server_args();
  return cfg;
}

// An in-process ReplicaServer on a Unix socket — loopback tests exercise
// the full client/server protocol without fork/exec.
class LoopbackServer {
 public:
  explicit LoopbackServer(const std::string& address) : address_(address) {
    auto session = testbed().fleet_builder(
        [](std::size_t) { return testbed().memory_source(); }).build(0);
    ReplicaServerConfig cfg;
    cfg.address = address;
    cfg.batch.max_delay = std::chrono::microseconds(100);
    server_ = std::make_unique<ReplicaServer>(std::move(session), cfg);
    thread_ = std::thread([this] { rc_ = server_->run(&stop_); });
  }
  ~LoopbackServer() { stop(); }

  int stop() {
    if (thread_.joinable()) {
      stop_ = 1;
      thread_.join();
    }
    return rc_;
  }
  const std::string& address() const { return address_; }
  const ReplicaServer& server() const { return *server_; }

 private:
  std::string address_;
  std::atomic<int> stop_{0};
  int rc_ = -1;
  std::unique_ptr<ReplicaServer> server_;
  std::thread thread_;
};

// Blocking call helper over the async client API.
RpcClient::Result call_sync(RpcClient& client, WireRequest req,
                            std::chrono::milliseconds timeout =
                                std::chrono::milliseconds(10000)) {
  std::promise<RpcClient::Result> done;
  client.call(req, timeout,
              [&done](RpcClient::Result& r) { done.set_value(std::move(r)); });
  return done.get_future().get();
}

TEST(RpcLoopback, EchoesEnvelopesThroughRealBatcher) {
  LoopbackServer server(std::string("unix:") + testbed().dir() +
                        "/loopback.sock");

  RpcClientConfig ccfg;
  ccfg.address = server.address();
  RpcClient client(ccfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(client.handshake(&ack, &err)) << err;
  EXPECT_EQ(ack.num_nodes, testbed().config().nodes);
  EXPECT_EQ(ack.classes, testbed().config().classes);
  EXPECT_TRUE(client.alive());

  // Logits must be bit-identical to an in-process session over the same
  // checkpoint: the wire carries exact IEEE bits, not approximations.
  auto ref = testbed().fleet_builder(
      [](std::size_t) { return testbed().memory_source(); }).build(0);

  WireRequest req;
  req.nodes = {1, 42, 977};
  auto res = call_sync(client, req);
  ASSERT_TRUE(res.transport_ok) << res.transport_error;
  EXPECT_EQ(res.response.status, ServeStatus::kOk);
  ASSERT_EQ(res.response.parts.size(), 3u);
  for (std::size_t i = 0; i < req.nodes.size(); ++i) {
    EXPECT_EQ(res.response.parts[i].status, ServeStatus::kOk);
    EXPECT_EQ(res.response.parts[i].logits, ref->infer_one(req.nodes[i]))
        << "node " << req.nodes[i];
  }

  // A node outside the store answers kError with the backend's text, and
  // does not poison the connection for the next call.
  WireRequest bad;
  bad.nodes = {static_cast<std::int64_t>(testbed().config().nodes) + 5};
  res = call_sync(client, bad);
  ASSERT_TRUE(res.transport_ok) << res.transport_error;
  EXPECT_EQ(res.response.status, ServeStatus::kError);
  EXPECT_FALSE(res.response.error.empty());

  WireRequest again;
  again.nodes = {7};
  res = call_sync(client, again);
  ASSERT_TRUE(res.transport_ok) << res.transport_error;
  EXPECT_EQ(res.response.status, ServeStatus::kOk);

  client.shutdown();
  EXPECT_EQ(server.stop(), 0);  // clean drain
}

TEST(RpcLoopback, VersionNegotiationCarriesTenantOnV2AndDropsItOnV1) {
  // The negotiation matrix of docs/wire-protocol.md, end to end over a
  // real socket: a v2 client's tenant id survives to the server's
  // per-tenant stats; a client pinned to a v1 offer negotiates down,
  // frames v1 bodies, and its requests land on the default tenant — the
  // old-peer compatibility the version bytes exist for.
  LoopbackServer server(std::string("unix:") + testbed().dir() +
                        "/negotiate.sock");

  RpcClientConfig v2cfg;
  v2cfg.address = server.address();
  RpcClient v2(v2cfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(v2.handshake(&ack, &err)) << err;
  EXPECT_EQ(ack.protocol, static_cast<std::uint32_t>(kWireVersion));
  EXPECT_EQ(v2.protocol(), kWireVersion);

  WireRequest tagged;
  tagged.nodes = {11};
  tagged.tenant = 9;
  auto res = call_sync(v2, tagged);
  ASSERT_TRUE(res.transport_ok) << res.transport_error;
  EXPECT_EQ(res.response.status, ServeStatus::kOk);

  RpcClientConfig v1cfg;
  v1cfg.address = server.address();
  v1cfg.protocol = 1;  // a v1 peer: offers 1, expects ack 1
  RpcClient v1(v1cfg);
  ASSERT_TRUE(v1.handshake(&ack, &err)) << err;
  EXPECT_EQ(ack.protocol, 1u);
  EXPECT_EQ(v1.protocol(), 1);

  WireRequest legacy;
  legacy.nodes = {12};
  legacy.tenant = 9;  // set but UNSENDABLE at v1 — must arrive as 0
  res = call_sync(v1, legacy);
  ASSERT_TRUE(res.transport_ok) << res.transport_error;
  EXPECT_EQ(res.response.status, ServeStatus::kOk);

  v2.shutdown();
  v1.shutdown();
  EXPECT_EQ(server.stop(), 0);

  // Server-side ledger: exactly one part billed to tenant 9 (the v2
  // call) and one to the default tenant (the v1 call's dropped id).
  std::size_t t0 = 0, t9 = 0, other = 0;
  for (const auto& row : server.server().stats().tenant_stats()) {
    if (row.tenant == 0) t0 = row.admitted;
    else if (row.tenant == 9) t9 = row.admitted;
    else other += row.admitted;
  }
  EXPECT_EQ(t9, 1u);
  EXPECT_EQ(t0, 1u);
  EXPECT_EQ(other, 0u);
}

TEST(RpcClientTest, FailsFastWhenServerNeverExisted) {
  RpcClientConfig ccfg;
  ccfg.address = std::string("unix:") + testbed().dir() + "/no-such.sock";
  ccfg.handshake_timeout = std::chrono::milliseconds(300);
  ccfg.connect_timeout = std::chrono::milliseconds(100);
  RpcClient client(ccfg);
  WireHelloAck ack;
  std::string err;
  EXPECT_FALSE(client.handshake(&ack, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(client.alive());

  // Calls against a dead client complete (with a transport failure) —
  // they never hang and never leak the completion.
  WireRequest req;
  req.nodes = {1};
  const auto res = call_sync(client, req, std::chrono::milliseconds(100));
  EXPECT_FALSE(res.transport_ok);
  EXPECT_FALSE(res.transport_error.empty());
}

TEST(RpcClientTest, BoundedBackoffExhaustsToDead) {
  const std::string addr =
      std::string("unix:") + testbed().dir() + "/backoff.sock";
  auto server = std::make_unique<LoopbackServer>(addr);

  RpcClientConfig ccfg;
  ccfg.address = addr;
  ccfg.backoff_initial = std::chrono::milliseconds(10);
  ccfg.backoff_max = std::chrono::milliseconds(50);
  ccfg.connect_timeout = std::chrono::milliseconds(100);
  ccfg.max_reconnect_attempts = 3;
  RpcClient client(ccfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(client.handshake(&ack, &err)) << err;

  // Kill the server for good; the socket path disappears with it.
  EXPECT_EQ(server->stop(), 0);
  server.reset();

  // Every reconnect attempt now fails; after max_reconnect_attempts the
  // client must latch dead (alive() false) rather than retry forever.
  // Calls in the interim fail with a transport error — none may hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.alive() && std::chrono::steady_clock::now() < deadline) {
    WireRequest req;
    req.nodes = {1};
    const auto res = call_sync(client, req, std::chrono::milliseconds(200));
    EXPECT_FALSE(res.transport_ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(client.alive());
}

TEST(RpcClientTest, ReconnectsAfterServerRestart) {
  const std::string addr =
      std::string("unix:") + testbed().dir() + "/restart.sock";
  auto server = std::make_unique<LoopbackServer>(addr);

  RpcClientConfig ccfg;
  ccfg.address = addr;
  ccfg.backoff_initial = std::chrono::milliseconds(10);
  ccfg.backoff_max = std::chrono::milliseconds(50);
  ccfg.connect_timeout = std::chrono::milliseconds(200);
  ccfg.max_reconnect_attempts = 1000;  // plenty to bridge the restart
  RpcClient client(ccfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(client.handshake(&ack, &err)) << err;

  EXPECT_EQ(server->stop(), 0);
  server = std::make_unique<LoopbackServer>(addr);  // rebinds the same path

  // The client notices the drop on its next I/O and reconnects with
  // backoff; within the attempt budget a call must succeed again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool served = false;
  while (!served && std::chrono::steady_clock::now() < deadline) {
    WireRequest req;
    req.nodes = {3};
    const auto res = call_sync(client, req, std::chrono::milliseconds(500));
    served = res.transport_ok && res.response.status == ServeStatus::kOk;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(served) << "client never reconnected to the restarted server";
}

TEST(RpcProcessTest, ExecFailureSurfacesChildExitCode) {
  auto cfg = spawn_config("execfail");
  cfg.server_binary = testbed().dir() + "/no-such-binary";
  cfg.client.handshake_timeout = std::chrono::milliseconds(1000);
  cfg.client.connect_timeout = std::chrono::milliseconds(100);
  std::string err;
  auto replica = spawn_replica_process(cfg, 90, &err);
  EXPECT_EQ(replica, nullptr);
  // The child _exit(127)s when exec fails; the spawn error reports it.
  EXPECT_NE(err.find("127"), std::string::npos) << err;
}

TEST(RpcProcessTest, SpawnHandshakeDrainReap) {
  std::string err;
  auto replica = spawn_replica_process(spawn_config("lifecycle"), 91, &err);
  ASSERT_NE(replica, nullptr) << err;
  EXPECT_GT(replica->pid(), 0);
  EXPECT_TRUE(replica->alive());
  // The HelloAck doubles as the health check: the server measured a real
  // inference before acking, so these fields describe a working replica.
  EXPECT_EQ(replica->info().num_nodes, testbed().config().nodes);
  EXPECT_EQ(replica->info().classes, testbed().config().classes);
  EXPECT_EQ(replica->info().precision, 0);  // fp32

  // SIGTERM drain on an idle replica: exits 0, reaped exactly once;
  // retire() is idempotent and keeps returning the same code.
  EXPECT_EQ(replica->retire(), 0);
  EXPECT_EQ(replica->retire(), 0);

  // The exit line perfbench's remote_mean_batch() parses out of the
  // replica's log, read from its ServerStats.
  std::ifstream log(spawn_config("lifecycle").log_path);
  const std::string text{std::istreambuf_iterator<char>(log), {}};
  const std::string exit_line =
      "replica_server: pid " + std::to_string(replica->pid()) +
      " exiting rc=0 (0 admitted, 0 shed, 0 batches)\n";
  EXPECT_NE(text.find(exit_line), std::string::npos) << text;
}

// --- Cross-process fleet ---------------------------------------------------

struct RemoteFleet {
  std::mutex mu;
  std::vector<std::shared_ptr<RemoteReplica>> spawned;  // in spawn order

  serve::RemoteSpawnFn spawner(const std::string& tag) {
    return [this, tag](std::size_t ordinal) {
      std::string err;
      auto r = spawn_replica_process(
          spawn_config(tag + "-" + std::to_string(ordinal)), ordinal, &err);
      if (!r) {
        std::fprintf(stderr, "spawn replica %zu failed: %s\n", ordinal,
                     err.c_str());
        return std::shared_ptr<RemoteReplica>();
      }
      std::lock_guard<std::mutex> lk(mu);
      spawned.push_back(r);
      return r;
    };
  }
};

TEST(RpcFleetTest, CrossProcessFleetServesBitIdenticalLogits) {
  RemoteFleet rf;
  serve::FleetConfig fcfg;
  serve::FleetManager fleet(rf.spawner("serve"), 2, fcfg);
  EXPECT_EQ(fleet.num_replicas(), 2u);

  auto ref = testbed().fleet_builder(
      [](std::size_t) { return testbed().memory_source(); }).build(0);

  const auto stream = testbed().stream(24);
  for (auto groups = serve::ServingTestbed::group_stream(stream, 3);
       const auto& nodes : groups) {
    serve::ServeRequest req;
    req.nodes = nodes;
    auto resp = fleet.infer_request(std::move(req));
    ASSERT_EQ(resp.status, ServeStatus::kOk);
    ASSERT_EQ(resp.logits.size(), nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(resp.logits[i], ref->infer_one(nodes[i]))
          << "node " << nodes[i];
    }
  }
  fleet.stop();
  // stop() drains both children via SIGTERM; both must exit clean.
  for (const auto& r : rf.spawned) EXPECT_EQ(r->retire(), 0);
}

// The tentpole proof: kill -9 one of two replica processes in the middle
// of an 8-thread envelope storm.  Every envelope must get exactly one
// response (re-routed work may be recomputed, never lost or doubled), and
// the corpse must be reaped with the SIGKILL exit code.
TEST(RpcFleetTest, KillNineMidStormLosesZeroEnvelopes) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 32;

  RemoteFleet rf;
  serve::FleetConfig fcfg;
  serve::FleetManager fleet(rf.spawner("crash"), 2, fcfg);
  std::shared_ptr<RemoteReplica> victim;
  {
    std::lock_guard<std::mutex> lk(rf.mu);
    ASSERT_EQ(rf.spawned.size(), 2u);
    victim = rf.spawned[0];
  }

  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> lost{false};
  std::mutex ids_mu;
  std::set<std::uint64_t> seen_ids;  // exactly-once accounting
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::CompletionQueue cq;
      const auto stream =
          testbed().stream(kPerThread * 2, /*seed=*/100 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::ServeRequest req;
        req.id = t * 1000 + i;
        req.nodes = {stream[2 * i], stream[2 * i + 1]};
        fleet.submit(std::move(req), cq);
        submitted.fetch_add(1);
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::ServeResponse resp;
        if (!cq.wait_for(&resp, std::chrono::seconds(60))) {
          lost = true;  // an envelope never answered — the bug this PR bans
          return;
        }
        std::lock_guard<std::mutex> lk(ids_mu);
        EXPECT_TRUE(seen_ids.insert(resp.id).second)
            << "duplicate response for id " << resp.id;
      }
    });
  }

  // Let the storm build, then murder replica 0.  No SIGTERM, no drain —
  // the fleet only learns from the dead socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  victim->kill_now();

  for (auto& th : threads) th.join();
  EXPECT_FALSE(lost) << "some envelope never received a response";
  EXPECT_EQ(seen_ids.size(), kThreads * kPerThread);
  EXPECT_EQ(submitted.load(), kThreads * kPerThread);

  fleet.stop();
  // The murdered child reaps with 128+SIGKILL; the survivor drains clean.
  EXPECT_EQ(victim->retire(), 137);
  std::shared_ptr<RemoteReplica> survivor;
  {
    std::lock_guard<std::mutex> lk(rf.mu);
    survivor = rf.spawned[1];
  }
  EXPECT_EQ(survivor->retire(), 0);
}

// Rolling restart under load: scale_down() (SIGTERM drain) mid-storm must
// also lose nothing, and the drained victim exits 0.
TEST(RpcFleetTest, GracefulScaleDownMidStormLosesNothing) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 24;

  RemoteFleet rf;
  serve::FleetConfig fcfg;
  serve::FleetManager fleet(rf.spawner("drain"), 2, fcfg);

  std::atomic<bool> lost{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::CompletionQueue cq;
      const auto stream = testbed().stream(kPerThread, /*seed=*/200 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::ServeRequest req;
        req.id = t * 1000 + i;
        req.nodes = {stream[i]};
        fleet.submit(std::move(req), cq);
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::ServeResponse resp;
        if (!cq.wait_for(&resp, std::chrono::seconds(60))) {
          lost = true;
          return;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fleet.scale_down();
  EXPECT_EQ(fleet.num_replicas(), 1u);

  for (auto& th : threads) th.join();
  EXPECT_FALSE(lost) << "graceful drain dropped an envelope";

  fleet.stop();
  for (const auto& r : rf.spawned) EXPECT_EQ(r->retire(), 0);
}

// --- Client-side stats of a remote replica ----------------------------------

// Every gather outlasts the deadline below, so the replica answers late
// (kDeadlineExceeded with logits) rather than shedding at dispatch.
class SlowSource : public serve::FeatureSource {
 public:
  explicit SlowSource(std::unique_ptr<serve::FeatureSource> inner)
      : inner_(std::move(inner)) {}
  std::size_t num_rows() const override { return inner_->num_rows(); }
  std::size_t row_dim() const override { return inner_->row_dim(); }
  void gather(const std::vector<std::int64_t>& rows, Tensor& out) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    inner_->gather(rows, out);
  }
  const char* kind() const override { return "slow"; }

 private:
  std::unique_ptr<serve::FeatureSource> inner_;
};

std::unique_ptr<serve::FeatureSource> slow_source(std::size_t) {
  return std::make_unique<SlowSource>(testbed().memory_source());
}

// A ReplicaServer over the slow source, served from its own thread.
struct SlowServer {
  ReplicaServer server;
  std::atomic<int> stop{0};
  std::thread thread;

  explicit SlowServer(const ReplicaServerConfig& cfg)
      : server(testbed().fleet_builder(slow_source).build(0), cfg),
        thread([this] { server.run(&stop); }) {}
  ~SlowServer() {
    stop = 1;
    thread.join();
  }
};

TEST(RemoteReplicaStats, LateAnswerRecordsItsQueueDelay) {
  // A late answer was admitted and dispatched like an on-time one, so the
  // client-side view must carry its queue delay too: it is one of the
  // slowest parts the windowed autoscale signal should see.
  ReplicaServerConfig cfg;
  cfg.address = std::string("unix:") + testbed().dir() + "/late.sock";
  cfg.batch.max_delay = std::chrono::microseconds(100);
  SlowServer server(cfg);

  RpcClientConfig ccfg;
  ccfg.address = cfg.address;
  auto client = std::make_unique<RpcClient>(ccfg);
  WireHelloAck ack;
  std::string err;
  ASSERT_TRUE(client->handshake(&ack, &err)) << err;
  RemoteReplica replica(nullptr, std::move(client), ack);

  serve::ServerStats stats(std::chrono::seconds(3600));
  serve::CompletionQueue cq;
  serve::ServeRequest req;
  req.nodes = {5};
  req.deadline = serve::deadline_in(std::chrono::milliseconds(100));
  const std::uint32_t slot = 0;
  replica.submit_parts(
      std::make_shared<serve::RequestState>(std::move(req), &cq), &slot, 1,
      &stats,
      [](const std::shared_ptr<serve::RequestState>&,
         std::vector<std::uint32_t>) { ADD_FAILURE() << "re-routed"; });
  serve::ServeResponse resp;
  ASSERT_TRUE(cq.wait_for(&resp, std::chrono::seconds(30)));
  EXPECT_EQ(resp.status, ServeStatus::kDeadlineExceeded);
  ASSERT_EQ(resp.logits.size(), 1u);
  EXPECT_FALSE(resp.logits[0].empty());  // answered late, not shed

  const serve::WindowStats w = stats.window();
  EXPECT_EQ(w.admission.admitted, 1u);
  EXPECT_EQ(w.deadline_missed, 1u);
  EXPECT_EQ(w.latency.count, 1u);
  EXPECT_EQ(w.queue_delay_samples, 1u);
  EXPECT_EQ(replica.retire(), -1);  // no child: shuts the client down
}

}  // namespace
}  // namespace ppgnn::rpc
