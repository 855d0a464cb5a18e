// The fleet simulator (src/fleetsim/): clock-injected gauges, trace
// round trips, deterministic replay, the capacity planner's choice, and
// the calibration parser.
//
// Determinism is the load-bearing property here: every test asserts
// exact equality of counters, signatures or full result JSON — never a
// timing — so the suite is bit-stable under ctest -j8, sanitizers, and
// loaded CI runners.  That is only possible because the simulator runs
// on a SimClock and models hit rates analytically; these tests are the
// regression net around that design.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "fleetsim/calibrate.h"
#include "fleetsim/fleet_sim.h"
#include "fleetsim/planner.h"
#include "fleetsim/service_model.h"
#include "serve/clock.h"
#include "serve/server_stats.h"
#include "serve/trace.h"
#include "serve/workload.h"
#include "tenancy/tenant.h"

namespace ppgnn::fleetsim {
namespace {

using namespace std::chrono_literals;

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- ServerStats windowed gauges on an injected clock -------------------
// The bugfix this PR rode in on: every windowed read must go through the
// injected clock.  On a SimClock, events recorded "long ago" in sim time
// must age out of the window without any real time passing — and events
// must NOT age out while sim time stands still, however long the wall
// clock runs.

TEST(SimClockStats, WindowAgesInSimTimeOnly) {
  serve::SimClock clock;
  serve::ServerStats stats(500ms, &clock);
  stats.record_admitted();
  stats.record_rejected();
  stats.record_queue_delay(100.0);

  // Sim time frozen: the events stay in the window no matter what the
  // wall clock does.
  auto w = stats.window();
  EXPECT_EQ(w.admission.admitted, 1u);
  EXPECT_EQ(w.admission.rejected, 1u);
  EXPECT_EQ(w.queue_delay_samples, 1u);

  // Advance PAST the window in sim time alone: everything ages out.
  clock.advance(2s);
  w = stats.window();
  EXPECT_EQ(w.admission.admitted, 0u);
  EXPECT_EQ(w.admission.rejected, 0u);
  EXPECT_EQ(w.queue_delay_samples, 0u);

  // New events land in the advanced window.
  stats.record_admitted();
  w = stats.window();
  EXPECT_EQ(w.admission.admitted, 1u);
  EXPECT_EQ(stats.admission().admitted, 2u);  // cumulative unaffected
}

// --- Trace round trips --------------------------------------------------

TEST(Trace, SaveLoadRoundTrip) {
  std::vector<serve::TraceEvent> trace(3);
  trace[0].t_us = 0;
  trace[0].nodes = {17, 42, 993};
  trace[0].tenant = 3;
  trace[1].t_us = 812;
  trace[1].priority = serve::Priority::kLow;
  trace[1].deadline_us = 250000;
  trace[1].nodes = {55};
  trace[2].t_us = 812;  // ties are legal (concurrent arrivals)
  trace[2].nodes = {7};
  const auto path = tmp_path("roundtrip.trace");
  serve::save_trace(path, trace);
  const auto loaded = serve::load_trace(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].t_us, trace[i].t_us);
    EXPECT_EQ(loaded[i].priority, trace[i].priority);
    EXPECT_EQ(loaded[i].deadline_us, trace[i].deadline_us);
    EXPECT_EQ(loaded[i].tenant, trace[i].tenant);
    EXPECT_EQ(loaded[i].nodes, trace[i].nodes);
  }
}

TEST(Trace, RecorderSnapshotIsSortedAndReplayable) {
  // The recorder's clients race on recording order; snapshot() must
  // deliver a time-ordered trace that save/load round-trips.
  const auto t0 = std::chrono::steady_clock::time_point{};
  serve::TraceRecorder rec(t0);
  rec.note(t0 + 900us, {5}, serve::Priority::kLow, 1000, 2);
  rec.note(t0 + 100us, {1, 2}, serve::Priority::kHigh, 0, 0);
  rec.note(t0 + 500us, {9}, serve::Priority::kHigh, 0, 1);
  EXPECT_EQ(rec.size(), 3u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].t_us, 100u);
  EXPECT_EQ(snap[1].t_us, 500u);
  EXPECT_EQ(snap[2].t_us, 900u);
  EXPECT_EQ(snap[0].nodes, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(snap[2].deadline_us, 1000u);

  const auto path = tmp_path("recorded.trace");
  rec.save(path);
  const auto loaded = serve::load_trace(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[1].tenant, 1u);

  // And the loaded trace replays.
  SimFleetConfig cfg;
  const auto r = FleetSim(cfg, ServiceModel({})).run(loaded);
  EXPECT_EQ(r.offered_parts, 4u);
  EXPECT_EQ(r.answered, 4u);
}

// --- Synthetic envelopes ------------------------------------------------

TEST(Trace, DiurnalArrivalsIntegrateTheEnvelope) {
  serve::DiurnalTraceConfig cfg;
  cfg.mix.num_nodes = 1000;
  cfg.mix.seed = 7;
  cfg.span_seconds = 120;
  cfg.base_rps = 50;
  cfg.peak_rps = 250;
  const auto trace = serve::diurnal_trace(cfg);
  // Total arrivals ~= integral of the rate; the emitter truncates the
  // trailing fractional arrival, so allow a couple of events of slack.
  double expect = 0;
  const double dt = 1e-3;
  for (double t = 0; t < cfg.span_seconds; t += dt) {
    expect += serve::diurnal_rate_at(cfg, t) * dt;
  }
  EXPECT_NEAR(static_cast<double>(trace.size()), expect, 2.0);

  // Arrival TIMES are seed-independent (the envelope is deterministic);
  // only the node draws differ.
  auto cfg2 = cfg;
  cfg2.mix.seed = 8;
  const auto trace2 = serve::diurnal_trace(cfg2);
  ASSERT_EQ(trace2.size(), trace.size());
  bool nodes_differ = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace2[i].t_us, trace[i].t_us);
    nodes_differ = nodes_differ || trace2[i].nodes != trace[i].nodes;
  }
  EXPECT_TRUE(nodes_differ);
}

// --- Simulator determinism ----------------------------------------------

SimFleetConfig autoscaling_fleet() {
  SimFleetConfig cfg;
  cfg.initial_replicas = 1;
  cfg.policy = serve::RoutingPolicy::kRoundRobin;
  cfg.batch.max_batch_size = 64;
  cfg.batch.max_delay = 500us;
  cfg.batch.shed_budget = 2000us;  // shedding on: the autoscale signal
  cfg.autoscale.enabled = true;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 4;
  cfg.cache.capacity_rows = 0;  // uncached: hit rate identically 0
  cfg.timeline_every = 0ms;
  return cfg;
}

// ~300 answered parts/s per replica on 4 modeled cores.
ServiceModel test_model() {
  return ServiceModel::calibrated(/*baseline_rps=*/300, /*mean_batch=*/16,
                                  /*mean_dispatch_us=*/50, /*hit_rate=*/0,
                                  /*cores=*/4);
}

TEST(FleetSim, SameInputsBitIdenticalResults) {
  serve::DiurnalTraceConfig tc;
  tc.mix.num_nodes = 1000;
  tc.mix.seed = 3;
  tc.span_seconds = 60;
  tc.base_rps = 100;
  tc.peak_rps = 700;
  const auto trace = serve::diurnal_trace(tc);
  const auto cfg = autoscaling_fleet();
  const auto model = test_model();
  const auto a = FleetSim(cfg, model).run(trace);
  const auto b = FleetSim(cfg, model).run(trace);
  // Full-result equality, wall time aside: counters, percentiles, events.
  // sim_wall_seconds is how long the REPLAY took — the one legitimately
  // nondeterministic field — so it is cut before comparing.
  const auto strip_wall = [](std::string j) {
    const auto at = j.find(",\"sim_wall_seconds\"");
    EXPECT_NE(at, std::string::npos);
    return j.substr(0, at);
  };
  EXPECT_GT(a.answered, 0u);
  EXPECT_EQ(strip_wall(a.to_json()), strip_wall(b.to_json()));
}

// The satellite test: AutoscalePolicy driven by the simulated event loop
// over a two-hour diurnal day.  The spawn/retire SEQUENCE and its times
// must be identical across trace seeds — the envelope (not the node
// draw) is what the policy reacts to — and across however many tests run
// in parallel around this one (nothing here reads the wall clock).
TEST(FleetSim, TwoHourDiurnalScalesDeterministicallyAcrossSeeds) {
  std::vector<std::string> signatures;
  std::vector<std::vector<double>> event_times;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    serve::DiurnalTraceConfig tc;
    tc.mix.num_nodes = 1000;
    tc.mix.seed = seed;
    tc.span_seconds = 7200;  // two hours of simulated day
    tc.base_rps = 60;
    tc.peak_rps = 600;       // 2x a replica's ~300/s: must scale up
    const auto trace = serve::diurnal_trace(tc);
    const auto r = FleetSim(autoscaling_fleet(), test_model()).run(trace);
    // The fleet actually scaled: up into the midday peak, back down after.
    EXPECT_GT(r.max_replicas_seen, 1u) << "seed " << seed;
    const auto sig = r.event_signature();
    EXPECT_NE(sig.find('u'), std::string::npos) << "seed " << seed;
    EXPECT_NE(sig.find('d'), std::string::npos) << "seed " << seed;
    signatures.push_back(sig);
    std::vector<double> times;
    for (const auto& e : r.events) times.push_back(e.t_seconds);
    event_times.push_back(std::move(times));
  }
  EXPECT_EQ(signatures[0], signatures[1]);
  EXPECT_EQ(signatures[0], signatures[2]);
  EXPECT_EQ(event_times[0], event_times[1]);
  EXPECT_EQ(event_times[0], event_times[2]);
}

// --- Pinned replay --------------------------------------------------------
// The determinism tests above compare two runs of one build: a change that
// moves the simulator's behaviour the same way in both runs passes them.
// This case pins one replay's integer results to recorded values, so any
// change to admission (verdicts, expiry sweep, least-slack eviction), DWRR
// batch composition, the tenant front gate or routing shows up as a diff.
// Each pinned counter is nonzero, so each mechanism is on the hook.

std::vector<serve::TraceEvent> pinned_trace() {
  serve::BurstTraceConfig tc;
  tc.mix.num_nodes = 2000;
  tc.mix.batch_nodes = 2;
  tc.mix.low_frac = 0.5;
  tc.mix.deadline_us = 3000;
  tc.mix.tenants = 3;
  tc.mix.seed = 11;
  tc.span_seconds = 8;
  tc.base_rps = 500;
  tc.burst_mult = 4;
  tc.burst_every_seconds = 4;
  tc.burst_seconds = 1;
  auto trace = serve::burst_trace(tc);
  // Every third envelope arrives without a deadline, so tenant 1's
  // contract default is stamped onto some of them at the front gate.
  for (std::size_t i = 0; i < trace.size(); i += 3) trace[i].deadline_us = 0;
  return trace;
}

// Weights 2:1:1 with a quota that binds in the bursts; tenant 1 has a
// default deadline and tenant 2 a kLow priority ceiling.
void install_pinned_contracts(tenancy::TenantRegistry* reg) {
  for (std::uint32_t t = 0; t < 3; ++t) {
    tenancy::TenantContract c;
    c.rate_per_s = 700;
    c.burst = 300;
    c.weight = t == 0 ? 2 : 1;
    if (t == 1) c.default_deadline_us = 4000;
    if (t == 2) c.priority_ceiling = serve::Priority::kLow;
    reg->set_contract(t, c);
  }
}

// Batches of 4 from a queue of 8: in the bursts the queue fills before its
// oldest part is 5 ms old, so kHigh arrivals evict kLow parts, and DWRR
// decides which queued parts make each batch.
SimFleetConfig pinned_fleet(const tenancy::TenantRegistry* reg,
                            bool autoscale) {
  SimFleetConfig cfg;
  cfg.initial_replicas = autoscale ? 1 : 2;
  cfg.policy = serve::RoutingPolicy::kCacheAffinity;
  cfg.batch.max_batch_size = 4;
  cfg.batch.max_delay = 500us;
  cfg.batch.queue_capacity = 8;
  cfg.batch.shed_budget = 5000us;
  cfg.autoscale.enabled = autoscale;
  cfg.autoscale.min_replicas = autoscale ? 1 : 2;
  cfg.autoscale.max_replicas = autoscale ? 4 : 2;
  cfg.cache.capacity_rows = 200;
  cfg.cache.num_nodes = 2000;
  cfg.timeline_every = 0ms;
  cfg.tenants = reg;
  return cfg;
}

struct PinnedCounts {
  std::size_t offered, admitted, rejected, shed, answered, deadline_missed,
      quota_refused;
  std::size_t tenant_admitted[3], tenant_shed[3];
  std::string events;  // spawn/retire signature; empty = fixed fleet
};

void expect_pinned(const SimResult& r, const PinnedCounts& want,
                   const char* arm) {
  SCOPED_TRACE(arm);
  EXPECT_EQ(r.offered_parts, want.offered);
  EXPECT_EQ(r.admitted, want.admitted);
  EXPECT_EQ(r.rejected, want.rejected);
  EXPECT_EQ(r.shed, want.shed);
  EXPECT_EQ(r.answered, want.answered);
  EXPECT_EQ(r.deadline_missed, want.deadline_missed);
  EXPECT_EQ(r.quota_refused, want.quota_refused);
  ASSERT_EQ(r.tenants.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(r.tenants[t].tenant, t);
    EXPECT_EQ(r.tenants[t].admitted, want.tenant_admitted[t])
        << "tenant " << t;
    EXPECT_EQ(r.tenants[t].shed, want.tenant_shed[t]) << "tenant " << t;
  }
  if (!want.events.empty()) {
    EXPECT_EQ(r.event_signature(), want.events);
  }
}

TEST(FleetSim, PinnedBurstReplayMatchesRecordedCounts) {
  const auto trace = pinned_trace();
  tenancy::TenantRegistry reg;
  install_pinned_contracts(&reg);
  const auto model = ServiceModel::calibrated(
      /*baseline_rps=*/1500, /*mean_batch=*/12, /*mean_dispatch_us=*/60,
      /*hit_rate=*/0.5, /*cores=*/4);
  const auto fixed = FleetSim(pinned_fleet(&reg, false), model).run(trace);
  const auto scaled = FleetSim(pinned_fleet(&reg, true), model).run(trace);
  // Recorded before MicroBatcher and FleetSim shared one AdmissionQueue.
  expect_pinned(fixed,
                {11980, 11904, 76, 341, 11563, 1148, 2016,
                 {3943, 3953, 4008}, {66, 97, 178}, ""},
                "fixed-2");
  expect_pinned(scaled,
                {11980, 10910, 1070, 1172, 9738, 1902, 2016,
                 {3692, 3698, 3520}, {233, 335, 604}, "ud"},
                "autoscale-1..4");
}

// --- Capacity planner ---------------------------------------------------

TEST(Planner, PicksTheCheapestFeasibleArm) {
  serve::DiurnalTraceConfig tc;
  tc.mix.num_nodes = 1000;
  tc.mix.seed = 5;
  tc.span_seconds = 60;
  tc.base_rps = 150;
  tc.peak_rps = 700;  // one ~300/s replica cannot hold the peak
  const auto trace = serve::diurnal_trace(tc);

  SimFleetConfig base = autoscaling_fleet();
  PlanTarget target;
  target.p99_ms = 10.0;
  target.max_shed_rate = 0.01;
  target.min_replicas = 1;
  target.max_replicas = 4;
  const auto plan = plan_capacity(base, test_model(), trace, target);
  ASSERT_EQ(plan.arms.size(), 5u);  // fixed 1..4 + autoscale
  ASSERT_TRUE(plan.attainable());
  const PlanArm* best = plan.best_arm();
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->feasible);
  // A single replica must NOT satisfy this trace (otherwise the test
  // exercises nothing), and the winner is the cheapest feasible arm.
  EXPECT_FALSE(plan.arms[0].feasible);
  for (const auto& arm : plan.arms) {
    if (arm.feasible) {
      EXPECT_LE(best->cost_replica_seconds, arm.cost_replica_seconds);
    }
  }
  // Fixed-arm feasibility is monotone in size: once an N meets the SLO,
  // every larger fixed fleet does too.
  bool seen_feasible = false;
  for (const auto& arm : plan.arms) {
    if (arm.replicas == 0) continue;  // the autoscale arm
    if (seen_feasible) EXPECT_TRUE(arm.feasible) << arm.name;
    seen_feasible = seen_feasible || arm.feasible;
  }
}

// --- Calibration parsing and gating -------------------------------------

TEST(Calibrate, ParsesBenchRecordsAndStripsInitialSpawns) {
  const std::string json =
      "[\n"
      "  {\"section\":\"serving\",\"rps\":123}\n"
      "  {\"section\":\"kernel_ladder\",\"isa\":\"sse2\",\"gemm_gops\":24.0,"
      "\"serve_rps\":800,\"active\":false}\n"
      "  {\"section\":\"kernel_ladder\",\"isa\":\"avx512vnni\","
      "\"gemm_gops\":140.5,\"serve_rps\":1500,\"active\":true}\n"
      "  {\"section\":\"autoscale_trace\",\"fleet\":\"fixed-min(1)\","
      "\"autoscale\":false,\"min_replicas\":1,\"max_replicas\":1,"
      "\"offered_mean_rps\":1200,\"answered_rps\":900,"
      "\"admitted_p99_us\":2000,\"shed_rate\":0.05,\"max_replicas_seen\":1,"
      "\"replica_seconds\":6.0,"
      "\"admission\":{\"admitted\":10,\"rejected\":1,\"shed\":0,"
      "\"shed_rate\":0.09},"
      "\"single_replica_rps\":1000,\"ramp_seconds\":6.0,\"mean_batch\":16,"
      "\"cache_hit_rate\":0.6,\"cache_capacity_rows\":1000,\"nodes\":20000,"
      "\"skew\":0.99,\"cores\":4,\"max_batch_size\":128,\"max_delay_us\":500,"
      "\"shed_budget_ms\":2,\"stats_window_ms\":500,\"scale_up_shed\":0.10,"
      "\"scale_down_idle\":0.90,\"sustain_ms\":300,\"idle_window_ms\":800,"
      "\"cooldown_ms\":1000,\"tick_ms\":50,\"warm_keys\":512,"
      "\"stages\":{\"admission_us\":100.0,\"dispatch_us\":80.0,"
      "\"compute_us\":500.0,\"shed_wait_us\":0.0,\"shed_waits\":0},"
      "\"events\":[{\"t\":0.00,\"action\":\"spawn\",\"generation\":0,"
      "\"replicas_after\":1}],\"timeline\":[]}\n"
      "  {\"section\":\"autoscale_trace\",\"fleet\":\"autoscale\","
      "\"autoscale\":true,\"min_replicas\":1,\"max_replicas\":4,"
      "\"answered_rps\":1100,\"admitted_p99_us\":3000,\"shed_rate\":0.02,"
      "\"max_replicas_seen\":2,\"replica_seconds\":7.5,"
      "\"events\":[{\"t\":0.00,\"action\":\"spawn\",\"generation\":0,"
      "\"replicas_after\":1},{\"t\":2.1,\"action\":\"spawn\","
      "\"generation\":1,\"replicas_after\":2},{\"t\":5.0,"
      "\"action\":\"retire\",\"generation\":1,\"replicas_after\":1}],"
      "\"timeline\":[]}\n"
      "]\n";
  const auto c = parse_bench_json(json);
  EXPECT_DOUBLE_EQ(c.single_replica_rps, 1000);
  EXPECT_DOUBLE_EQ(c.ramp_seconds, 6.0);
  EXPECT_DOUBLE_EQ(c.mean_batch, 16);
  EXPECT_DOUBLE_EQ(c.mean_dispatch_us, 80.0);  // stages.dispatch_us
  EXPECT_DOUBLE_EQ(c.cache_hit_rate, 0.6);     // the fixed-min arm's
  EXPECT_EQ(c.cache_capacity_rows, 1000u);
  EXPECT_EQ(c.nodes, 20000u);
  EXPECT_DOUBLE_EQ(c.cores, 4);
  ASSERT_EQ(c.arms.size(), 2u);
  EXPECT_EQ(c.arms[0].fleet, "fixed-min(1)");
  EXPECT_FALSE(c.arms[0].autoscale);
  EXPECT_DOUBLE_EQ(c.arms[0].answered_rps, 900);
  // shed_rate must come from the TOP-LEVEL key, not the admission
  // subobject's (first occurrence wins — the emission order guarantee).
  EXPECT_DOUBLE_EQ(c.arms[0].shed_rate, 0.05);
  // Initial spawns stripped: the fixed arm's dynamic sequence is empty,
  // the autoscale arm keeps its genuine spawn + retire.
  EXPECT_EQ(c.arms[0].event_signature, "");
  EXPECT_TRUE(c.arms[1].autoscale);
  EXPECT_EQ(c.arms[1].event_signature, "ud");
  // The per-ISA GEMM table rides along; the active row is the dispatched
  // kernel the cost model calibrates its INT8 rate from.
  ASSERT_EQ(c.kernels.size(), 2u);
  EXPECT_EQ(c.kernels[0].isa, "sse2");
  EXPECT_DOUBLE_EQ(c.kernels[0].gemm_gops, 24.0);
  EXPECT_FALSE(c.kernels[0].active);
  ASSERT_NE(c.dispatched_kernel(), nullptr);
  EXPECT_EQ(c.dispatched_kernel()->isa, "avx512vnni");
  EXPECT_DOUBLE_EQ(c.dispatched_kernel()->gemm_gops, 140.5);
  EXPECT_DOUBLE_EQ(c.dispatched_kernel()->serve_rps, 1500);

  EXPECT_THROW(parse_bench_json("[{\"section\":\"serving\"}]"),
               std::runtime_error);
}

TEST(ServiceModel, FromCostModelTracksTheKernelLadderArm) {
  // A machine whose INT8 GEMM runs on a faster ladder arm must model a
  // cheaper per-row forward — first-principles capacity plans follow the
  // dispatched kernel instead of a hard-coded constant.
  sim::MachineSpec slow = sim::MachineSpec::paper_server();
  slow.cpu_gemm = sim::CpuGemmSpec::measured(Isa::kScalar, 6.0);
  sim::MachineSpec fast = slow;
  fast.cpu_gemm = sim::CpuGemmSpec::measured(Isa::kAvx512Vnni, 150.0);
  sim::PpModelShape shape;
  const auto m_slow =
      ServiceModel::from_cost_model(sim::CostModel(slow), shape, 1);
  const auto m_fast =
      ServiceModel::from_cost_model(sim::CostModel(fast), shape, 1);
  EXPECT_GT(m_slow.params().hit_us_per_row, m_fast.params().hit_us_per_row);
  EXPECT_GT(m_fast.replica_capacity_rps(64, 1.0),
            m_slow.replica_capacity_rps(64, 1.0));
}

TEST(Calibrate, EditDistance) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("ud", "ud"), 0u);
  EXPECT_EQ(edit_distance("ud", "uud"), 1u);
  EXPECT_EQ(edit_distance("", "ud"), 2u);
  EXPECT_EQ(edit_distance("uudd", "dduu"), 4u);
}

// --- Service / cache models ---------------------------------------------

TEST(ServiceModel, CalibratedReproducesTheBaseline) {
  // A model calibrated to X parts/s must simulate one replica sustaining
  // ~X parts/s at the calibration hit rate: service time per mean batch
  // == mean_batch / baseline.
  const double baseline = 5000, mean_batch = 32, hit = 0.5;
  const auto m = ServiceModel::calibrated(baseline, mean_batch, 100, hit, 1);
  const double us =
      m.batch_service_us(static_cast<std::size_t>(mean_batch), hit, 1);
  EXPECT_NEAR(us, mean_batch / baseline * 1e6, 1e-6);
  EXPECT_NEAR(m.replica_capacity_rps(static_cast<std::size_t>(mean_batch),
                                     hit),
              baseline, 1.0);
  // Timesharing: 2 active replicas on 1 core run batches twice as long.
  EXPECT_NEAR(m.batch_service_us(32, hit, 2), 2 * us, 1e-6);
}

TEST(CacheModel, AnalyticHitRateIsDeterministicAndSharded) {
  // Steady hit rate grows with capacity and with shard count (ring
  // sharding multiplies effective capacity), and never exceeds 1.
  const double h1 = steady_hit_rate(100, 10000, 0.99, 1);
  const double h2 = steady_hit_rate(200, 10000, 0.99, 1);
  const double h1s2 = steady_hit_rate(100, 10000, 0.99, 2);
  EXPECT_GT(h1, 0);
  EXPECT_LT(h1, h2);
  EXPECT_DOUBLE_EQ(h2, h1s2);  // C rows x 2 shards == 2C rows x 1 shard
  EXPECT_LE(steady_hit_rate(10000, 10000, 0.99, 4), 1.0);

  // Warm-up: a cold cache climbs toward steady as batches flow through.
  CacheModelConfig cc;
  cc.capacity_rows = 500;
  cc.num_nodes = 10000;
  CacheModel cold(cc, /*warm_rows=*/0, /*shards=*/1);
  const double before = cold.hit_rate();
  for (int i = 0; i < 50; ++i) cold.on_batch(64);
  EXPECT_GT(cold.hit_rate(), before);
  EXPECT_LE(cold.hit_rate(), steady_hit_rate(500, 10000, 0.99, 1) + 1e-9);
}

}  // namespace
}  // namespace ppgnn::fleetsim
