// ServerStats' one latency store, LatencyHistogram: percentiles against the
// exact nearest-rank oracle (percentile() in server_stats.h), merges that
// equal recording the union, and a recorder whose heap stays flat however
// many samples it takes.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "serve/clock.h"
#include "serve/latency_histogram.h"
#include "serve/server_stats.h"
#include "tensor/rng.h"

// Live heap bytes of this process.  Sanitizer runtimes define every
// operator new / delete form themselves, so each form the containers use
// is replaced here, not just the two that libstdc++ forwards the rest to.
namespace {
std::atomic<long long> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace ppgnn::serve {
namespace {

using namespace std::chrono_literals;

// Log-uniform over [1 us, 100 s]: every octave of the histogram's range
// gets samples.
double log_uniform_us(Rng& rng) {
  return std::exp(rng.uniform() * std::log(1e8));
}

// The accuracy contract: 1 us below 100 us, 1% from there up.
void expect_close(double got, double exact, const char* what, double p) {
  const double tol = exact < 100 ? 1.0 : 0.01 * exact;
  EXPECT_NEAR(got, exact, tol) << what << " p" << p;
}

TEST(LatencyHistogram, PercentilesTrackTheNearestRankOracle) {
  SimClock clock;  // frozen: every sample stays inside the window
  ServerStats stats(1000ms, &clock);
  LatencyHistogram h;
  Rng rng(17);
  std::vector<double> all;
  std::vector<std::vector<double>> by_tenant(3);
  for (int i = 0; i < 200000; ++i) {
    const double v = log_uniform_us(rng);
    const auto tenant = static_cast<std::uint32_t>(i % 3);
    h.record(v);
    stats.record(v, tenant);
    all.push_back(v);
    by_tenant[tenant].push_back(v);
  }
  for (const double p : {0.1, 1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0,
                         99.0, 99.9, 100.0}) {
    expect_close(h.percentile(p), percentile(all, p), "histogram", p);
  }
  double sum = 0;
  for (const double v : all) sum += v;
  const double max = *std::max_element(all.begin(), all.end());

  for (const LatencySummary& s : {stats.summary(), stats.window().latency}) {
    EXPECT_EQ(s.count, all.size());
    EXPECT_EQ(s.max_us, max);
    EXPECT_NEAR(s.mean_us, sum / static_cast<double>(all.size()),
                1e-9 * s.mean_us);
    expect_close(s.p50_us, percentile(all, 50), "summary", 50);
    expect_close(s.p95_us, percentile(all, 95), "summary", 95);
    expect_close(s.p99_us, percentile(all, 99), "summary", 99);
  }
  const auto rows = stats.tenant_stats();
  ASSERT_EQ(rows.size(), 3u);
  for (const TenantStat& t : rows) {
    const auto& mine = by_tenant[t.tenant];
    EXPECT_EQ(t.samples, mine.size());
    EXPECT_EQ(t.win_samples, mine.size());
    expect_close(t.p50_us, percentile(mine, 50), "tenant", 50);
    expect_close(t.p99_us, percentile(mine, 99), "tenant", 99);
    expect_close(t.win_p50_us, percentile(mine, 50), "tenant window", 50);
    expect_close(t.win_p99_us, percentile(mine, 99), "tenant window", 99);
  }
}

TEST(ServerStats, MergeMatchesRecordingTheUnion) {
  SimClock clock;
  ServerStats a(1000ms, &clock), b(1000ms, &clock), both(1000ms, &clock);
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    // Whole microseconds keep every sum exact, so means compare exactly
    // whatever order the merge adds them in.
    const double v = std::floor(log_uniform_us(rng));
    const auto tenant = static_cast<std::uint32_t>(rng.uniform_int(4));
    for (ServerStats* s : {rng.bernoulli(0.5) ? &a : &b, &both}) {
      s->record_admitted(tenant);
      s->record(v, tenant);
      s->record_queue_delay(std::floor(v / 2));
      if (i % 7 == 0) s->record_shed(tenant);
      if (i % 11 == 0) s->record_quota_refused(tenant);
    }
    clock.advance(100us);
  }
  ServerStats pooled;
  pooled.merge(a);
  pooled.merge(b);

  const LatencySummary got = pooled.summary();
  const LatencySummary want = both.summary();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.p50_us, want.p50_us);
  EXPECT_EQ(got.p95_us, want.p95_us);
  EXPECT_EQ(got.p99_us, want.p99_us);
  EXPECT_EQ(got.mean_us, want.mean_us);
  EXPECT_EQ(got.max_us, want.max_us);
  EXPECT_EQ(got.wall_seconds, want.wall_seconds);
  EXPECT_EQ(got.throughput_rps, want.throughput_rps);

  const auto got_rows = pooled.tenant_stats();
  const auto want_rows = both.tenant_stats();
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (std::size_t i = 0; i < got_rows.size(); ++i) {
    EXPECT_EQ(got_rows[i].tenant, want_rows[i].tenant);
    EXPECT_EQ(got_rows[i].admitted, want_rows[i].admitted);
    EXPECT_EQ(got_rows[i].rejected, want_rows[i].rejected);
    EXPECT_EQ(got_rows[i].shed, want_rows[i].shed);
    EXPECT_EQ(got_rows[i].quota_refused, want_rows[i].quota_refused);
    EXPECT_EQ(got_rows[i].samples, want_rows[i].samples);
    EXPECT_EQ(got_rows[i].p50_us, want_rows[i].p50_us);
    EXPECT_EQ(got_rows[i].p99_us, want_rows[i].p99_us);
  }

  // Windows pool across recorders too (the fleet's status line): the same
  // bucket periods, so the same counts and percentiles.
  const WindowStats wp = ServerStats::pooled_window({&a, &b}, clock.now());
  const WindowStats wb = both.window();
  EXPECT_GT(wb.latency.count, 0u);
  EXPECT_LT(wb.latency.count, want.count);  // older samples aged out
  EXPECT_EQ(wp.latency.count, wb.latency.count);
  EXPECT_EQ(wp.latency.p50_us, wb.latency.p50_us);
  EXPECT_EQ(wp.latency.p99_us, wb.latency.p99_us);
  EXPECT_EQ(wp.latency.max_us, wb.latency.max_us);
  EXPECT_EQ(wp.admission.admitted, wb.admission.admitted);
  EXPECT_EQ(wp.admission.shed, wb.admission.shed);
  EXPECT_EQ(wp.queue_delay_samples, wb.queue_delay_samples);
  EXPECT_DOUBLE_EQ(wp.mean_queue_delay_us, wb.mean_queue_delay_us);
}

TEST(ServerStats, HeapStaysFlatFrom100kTo2MSamples) {
  SimClock clock;
  const long long base = g_live_bytes.load();
  long long at_100k = 0;
  {
    ServerStats stats(100ms, &clock);
    Rng rng(5);
    constexpr int kSamples = 2000000;
    // 10 us of sim time per sample: 200 window spans over the run, 10 by
    // the first reading, so every ring slot of every tenant is in use.
    for (int i = 0; i < kSamples; ++i) {
      const auto tenant = static_cast<std::uint32_t>(i % 4);
      const double v = log_uniform_us(rng);
      stats.record_admitted(tenant);
      stats.record(v, tenant);
      stats.record_queue_delay(v / 2);
      clock.advance(10us);
      if (i + 1 == 100000) at_100k = g_live_bytes.load() - base;
    }
    EXPECT_EQ(g_live_bytes.load() - base, at_100k);
    EXPECT_EQ(stats.summary().count, static_cast<std::size_t>(kSamples));
  }
  EXPECT_GT(at_100k, 0);
  EXPECT_EQ(g_live_bytes.load(), base);  // and all of it is released
}

}  // namespace
}  // namespace ppgnn::serve
