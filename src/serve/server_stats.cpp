#include "serve/server_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ppgnn::serve {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size());
  auto idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;  // nearest-rank is 1-based
  if (idx >= sample.size()) idx = sample.size() - 1;
  return sample[idx];
}

namespace {

// The one percentile read behind summary() and the windows.  A single
// instantaneous completion has no measurable span; its rate is the count
// over a conservative 1us floor instead of infinity.
LatencySummary summarize(const LatencyHistogram& h, double wall_seconds) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.mean_us = h.sum() / static_cast<double>(s.count);
  s.max_us = h.max();
  s.p50_us = h.percentile(50);
  s.p95_us = h.percentile(95);
  s.p99_us = h.percentile(99);
  s.wall_seconds = wall_seconds;
  s.throughput_rps =
      static_cast<double>(s.count) / std::max(wall_seconds, 1e-6);
  return s;
}

}  // namespace

std::string LatencySummary::to_json() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
                "\"p99_us\":%.1f,\"mean_us\":%.1f,\"max_us\":%.1f,"
                "\"wall_seconds\":%.4f,\"throughput_rps\":%.0f}",
                count, p50_us, p95_us, p99_us, mean_us, max_us, wall_seconds,
                throughput_rps);
  return buf;
}

std::string AdmissionCounters::to_json() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"admitted\":%zu,\"rejected\":%zu,\"shed\":%zu,"
                "\"reject_rate\":%.4f,\"shed_rate\":%.4f}",
                admitted, rejected, shed, reject_rate(), shed_rate());
  return buf;
}

std::string TenantStat::to_json() const {
  char buf[352];
  std::snprintf(buf, sizeof(buf),
                "{\"tenant\":%u,\"admitted\":%zu,\"rejected\":%zu,"
                "\"shed\":%zu,\"quota_refused\":%zu,\"samples\":%zu,"
                "\"p50_us\":%.1f,\"p99_us\":%.1f,\"win_samples\":%zu,"
                "\"win_p50_us\":%.1f,\"win_p99_us\":%.1f}",
                tenant, admitted, rejected, shed, quota_refused, samples,
                p50_us, p99_us, win_samples, win_p50_us, win_p99_us);
  return buf;
}

std::string StageGauges::to_json() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"admission_us\":%.1f,\"dispatch_us\":%.1f,"
                "\"compute_us\":%.1f,\"shed_wait_us\":%.1f,"
                "\"shed_waits\":%zu}",
                mean_admission_us(), mean_dispatch_us(), mean_compute_us(),
                mean_shed_wait_us(), shed_waits);
  return buf;
}

ServerStats::ServerStats(std::chrono::milliseconds window, const Clock* clock)
    : clock_(clock_or_real(clock)) {
  if (window.count() <= 0) window = std::chrono::milliseconds(1000);
  window_ = window;
  // Bucket length must be a nonzero duration (it divides timestamps);
  // a sub-16ms window degrades to coarser effective bucketing rather
  // than dividing by zero.
  bucket_len_ = std::max<std::chrono::steady_clock::duration>(
      window_ / kBuckets, std::chrono::milliseconds(1));
}

std::size_t ServerStats::current_slot_locked(
    std::chrono::steady_clock::time_point now) {
  // Buckets are addressed by absolute bucket index mod kBuckets; any bucket
  // whose recorded start doesn't match the slot's current period is stale
  // (the ring wrapped past it) and restarts from zero.
  const auto ticks = now.time_since_epoch() / bucket_len_;
  const auto slot = static_cast<std::size_t>(
      static_cast<std::uint64_t>(ticks) % kBuckets);
  const auto start =
      std::chrono::steady_clock::time_point(bucket_len_ * ticks);
  Bucket& b = buckets_[slot];
  if (b.start != start) {
    b = Bucket{};
    b.start = start;
    for (auto& [id, t] : tenants_) t.window[slot].clear();
  }
  return slot;
}

bool ServerStats::in_window_locked(
    std::size_t i, std::chrono::steady_clock::time_point now) const {
  // A start of time_point{} (never written) sorts before any horizon.
  return buckets_[i].start >= now - window_ && buckets_[i].start <= now;
}

void ServerStats::record(double latency_us, std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t slot = current_slot_locked(now);
  TenantSlice& t = tenants_[tenant];
  t.latency.record(latency_us);
  t.window[slot].record(latency_us);
  first_done_ = std::min(first_done_, now);
  last_done_ = std::max(last_done_, now);
}

void ServerStats::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  batched_requests_ += batch_size;
}

void ServerStats::record_queue_delay(double delay_us) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  Bucket& b = buckets_[current_slot_locked(now)];
  b.queue_delay_sum_us += delay_us;
  ++b.queue_delay_count;
}

void ServerStats::record_admitted(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.admitted;
  ++tenants_[tenant].admitted;
  ++buckets_[current_slot_locked(now)].admission.admitted;
}

void ServerStats::record_rejected(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.rejected;
  ++tenants_[tenant].rejected;
  ++buckets_[current_slot_locked(now)].admission.rejected;
}

void ServerStats::record_shed(std::uint32_t tenant) {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++admission_.shed;
  ++tenants_[tenant].shed;
  ++buckets_[current_slot_locked(now)].admission.shed;
}

void ServerStats::record_quota_refused(std::uint32_t tenant, std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  quota_refused_ += n;
  tenants_[tenant].quota_refused += n;
  // No bucket update: quota refusals stay out of the windowed admission
  // counters by design (the autoscaler must not see them as shed).
}

void ServerStats::record_deadline_miss() {
  const auto now = clock_->now();
  std::lock_guard<std::mutex> lk(mu_);
  ++deadline_missed_;
  ++buckets_[current_slot_locked(now)].deadline_missed;
}

void ServerStats::record_stages(double admission_us, double dispatch_us,
                                double compute_us) {
  std::lock_guard<std::mutex> lk(mu_);
  stages_.admission_sum_us += admission_us;
  stages_.dispatch_sum_us += dispatch_us;
  stages_.compute_sum_us += compute_us;
  ++stages_.dispatched;
}

void ServerStats::record_shed_wait(double admission_us) {
  std::lock_guard<std::mutex> lk(mu_);
  stages_.shed_wait_sum_us += admission_us;
  ++stages_.shed_waits;
}

AdmissionCounters ServerStats::admission() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admission_;
}

StageGauges ServerStats::stages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stages_;
}

std::size_t ServerStats::deadline_missed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deadline_missed_;
}

std::size_t ServerStats::quota_refused_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return quota_refused_;
}

std::vector<TenantStat> ServerStats::tenant_stats(
    std::chrono::steady_clock::time_point now) const {
  std::vector<TenantStat> rows;
  std::lock_guard<std::mutex> lk(mu_);
  rows.reserve(tenants_.size());
  for (const auto& [id, slice] : tenants_) {
    TenantStat t;
    t.tenant = id;
    t.admitted = slice.admitted;
    t.rejected = slice.rejected;
    t.shed = slice.shed;
    t.quota_refused = slice.quota_refused;
    t.samples = slice.latency.count();
    t.p50_us = slice.latency.percentile(50);
    t.p99_us = slice.latency.percentile(99);
    LatencyHistogram recent;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (in_window_locked(i, now)) recent.merge(slice.window[i]);
    }
    t.win_samples = recent.count();
    t.win_p50_us = recent.percentile(50);
    t.win_p99_us = recent.percentile(99);
    rows.push_back(t);
  }
  return rows;
}

WindowStats ServerStats::window_locked(
    std::chrono::steady_clock::time_point now,
    LatencyHistogram& latency) const {
  WindowStats w;
  double delay_sum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (!in_window_locked(i, now)) continue;
    const Bucket& b = buckets_[i];
    w.admission.admitted += b.admission.admitted;
    w.admission.rejected += b.admission.rejected;
    w.admission.shed += b.admission.shed;
    w.deadline_missed += b.deadline_missed;
    delay_sum += b.queue_delay_sum_us;
    w.queue_delay_samples += b.queue_delay_count;
    for (const auto& [id, t] : tenants_) latency.merge(t.window[i]);
  }
  if (w.queue_delay_samples > 0) {
    w.mean_queue_delay_us =
        delay_sum / static_cast<double>(w.queue_delay_samples);
  }
  return w;
}

WindowStats ServerStats::window(
    std::chrono::steady_clock::time_point now) const {
  return pooled_window({this}, now);
}

WindowStats ServerStats::pooled_window(
    const std::vector<const ServerStats*>& recorders,
    std::chrono::steady_clock::time_point now) {
  WindowStats pool;
  LatencyHistogram recent;
  double delay_sum = 0;
  double span_seconds = 1.0;
  for (const ServerStats* r : recorders) {
    std::lock_guard<std::mutex> lk(r->mu_);
    const WindowStats w = r->window_locked(now, recent);
    pool.admission.admitted += w.admission.admitted;
    pool.admission.rejected += w.admission.rejected;
    pool.admission.shed += w.admission.shed;
    pool.deadline_missed += w.deadline_missed;
    delay_sum +=
        w.mean_queue_delay_us * static_cast<double>(w.queue_delay_samples);
    pool.queue_delay_samples += w.queue_delay_samples;
    span_seconds = std::chrono::duration<double>(r->window_).count();
  }
  if (pool.queue_delay_samples > 0) {
    pool.mean_queue_delay_us =
        delay_sum / static_cast<double>(pool.queue_delay_samples);
  }
  pool.latency = summarize(recent, span_seconds);
  return pool;
}

void ServerStats::merge(const ServerStats& other) {
  std::scoped_lock lk(mu_, other.mu_);
  batches_ += other.batches_;
  batched_requests_ += other.batched_requests_;
  admission_.admitted += other.admission_.admitted;
  admission_.rejected += other.admission_.rejected;
  admission_.shed += other.admission_.shed;
  deadline_missed_ += other.deadline_missed_;
  quota_refused_ += other.quota_refused_;
  for (const auto& [id, slice] : other.tenants_) {
    TenantSlice& mine = tenants_[id];
    mine.admitted += slice.admitted;
    mine.rejected += slice.rejected;
    mine.shed += slice.shed;
    mine.quota_refused += slice.quota_refused;
    mine.latency.merge(slice.latency);
  }
  stages_.admission_sum_us += other.stages_.admission_sum_us;
  stages_.dispatch_sum_us += other.stages_.dispatch_sum_us;
  stages_.compute_sum_us += other.stages_.compute_sum_us;
  stages_.dispatched += other.stages_.dispatched;
  stages_.shed_wait_sum_us += other.stages_.shed_wait_sum_us;
  stages_.shed_waits += other.stages_.shed_waits;
  first_done_ = std::min(first_done_, other.first_done_);
  last_done_ = std::max(last_done_, other.last_done_);
}

bool ServerStats::merge_once(const ServerStats& other,
                             std::uint64_t generation) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!merged_generations_.insert(generation).second) {
      return false;  // this generation's samples are already pooled here
    }
  }
  merge(other);
  return true;
}

LatencySummary ServerStats::summary() const {
  LatencyHistogram all;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [id, t] : tenants_) all.merge(t.latency);
  if (all.count() == 0) return LatencySummary{};
  return summarize(
      all, std::chrono::duration<double>(last_done_ - first_done_).count());
}

std::size_t ServerStats::batches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_;
}

double ServerStats::mean_batch_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return batches_ == 0 ? 0.0
                       : static_cast<double>(batched_requests_) /
                             static_cast<double>(batches_);
}

}  // namespace ppgnn::serve
