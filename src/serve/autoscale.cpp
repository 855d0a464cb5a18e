#include "serve/autoscale.h"

#include <algorithm>
#include <stdexcept>

#include "serve/server_stats.h"

namespace ppgnn::serve {

FleetSignals fleet_signals(const std::vector<const ServerStats*>& replicas,
                           std::chrono::steady_clock::time_point now,
                           std::size_t max_batch_size,
                           std::size_t queue_depth) {
  const WindowStats w = ServerStats::pooled_window(replicas, now);
  FleetSignals s;
  s.shed_rate = w.shed_rate();
  s.mean_queue_delay_us = w.mean_queue_delay_us;
  s.queue_depth = queue_depth;
  s.replicas = replicas.size();
  s.batch_capacity = std::max<std::size_t>(1, s.replicas * max_batch_size);
  return s;
}

const char* scale_action_name(ScaleAction a) {
  switch (a) {
    case ScaleAction::kNone:
      return "none";
    case ScaleAction::kUp:
      return "up";
    case ScaleAction::kDown:
      return "down";
  }
  return "?";
}

AutoscalePolicy::AutoscalePolicy(const AutoscaleConfig& cfg) : cfg_(cfg) {
  if (cfg_.min_replicas == 0 || cfg_.max_replicas < cfg_.min_replicas) {
    throw std::invalid_argument(
        "AutoscalePolicy: need 1 <= min_replicas <= max_replicas");
  }
  if (cfg_.scale_up_shed <= 0 || cfg_.scale_down_idle <= 0 ||
      cfg_.scale_down_idle > 1) {
    throw std::invalid_argument(
        "AutoscalePolicy: scale_up_shed must be > 0 and scale_down_idle in "
        "(0, 1]");
  }
}

ScaleAction AutoscalePolicy::on_tick(
    const FleetSignals& s, std::chrono::steady_clock::time_point now) {
  // Track the signals unconditionally — hysteresis state must advance even
  // while the cooldown suppresses actions, otherwise the first tick after
  // the cooldown would need a full fresh sustain/idle run-up.
  if (s.shed_rate > cfg_.scale_up_shed) {
    if (!over_) {
      over_ = true;
      over_since_ = now;
    }
  } else {
    over_ = false;
  }
  // Idle = no backlog beyond one dispatch round AND shedding well inside
  // the hysteresis band (half the scale-up threshold, not strictly zero:
  // a loaded machine sheds a ~1% trickle from scheduling jitter even at
  // half load, and demanding exact zero would pin the fleet at max
  // forever).
  const bool idle_now = s.queue_depth <= s.batch_capacity &&
                        s.shed_rate <= 0.5 * cfg_.scale_up_shed;
  if (!covering_) {
    covering_ = true;
    coverage_start_ = now;
  }
  idle_.emplace_back(now, idle_now);
  const auto idle_horizon = now - cfg_.idle_window;
  while (!idle_.empty() && idle_.front().first < idle_horizon) {
    idle_.pop_front();
  }

  if (acted_ && now - last_action_ < cfg_.cooldown) return ScaleAction::kNone;

  if (over_ && now - over_since_ >= cfg_.sustain &&
      s.replicas < cfg_.max_replicas) {
    acted_ = true;
    last_action_ = now;
    // The new replica changes what the signals mean; demand a fresh
    // sustained crossing (and fresh idle evidence) before the next action.
    over_ = false;
    idle_.clear();
    covering_ = false;
    return ScaleAction::kUp;
  }

  // Retiring needs positive evidence spanning the whole idle window:
  // tracking must have covered idle_window of real time since the last
  // reset, so a burst of idle ticks right after startup (or after an
  // action cleared the history) can't retire.
  if (s.replicas > cfg_.min_replicas && !idle_.empty() &&
      now - coverage_start_ >= cfg_.idle_window) {
    std::size_t idle_ticks = 0;
    for (const auto& [_, was_idle] : idle_) idle_ticks += was_idle ? 1 : 0;
    const double idle_frac =
        static_cast<double>(idle_ticks) / static_cast<double>(idle_.size());
    if (idle_frac >= cfg_.scale_down_idle) {
      acted_ = true;
      last_action_ = now;
      over_ = false;
      idle_.clear();
      covering_ = false;
      return ScaleAction::kDown;
    }
  }
  return ScaleAction::kNone;
}

}  // namespace ppgnn::serve
