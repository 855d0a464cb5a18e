#include "rpc/remote_replica.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace ppgnn::rpc {

namespace {

// Client-side stats view of one finished wire part, mirroring what a local
// MicroBatcher records so the fleet's windowed autoscale signals read the
// same regardless of where the replica lives.  Latency here is the full
// round trip (submit -> response), which is the number the front's clients
// actually experience.
void record_part(serve::ServerStats* stats, const WirePart& part,
                 const serve::StageTimings& t, double latency_us,
                 std::uint32_t tenant) {
  if (!stats) return;
  switch (part.status) {
    case serve::ServeStatus::kOk:
      stats->record_admitted(tenant);
      stats->record(latency_us, tenant);
      stats->record_queue_delay(t.admission_wait_us);
      stats->record_stages(t.admission_wait_us, t.dispatch_delay_us,
                          t.compute_us);
      break;
    case serve::ServeStatus::kDeadlineExceeded:
      stats->record_deadline_miss();
      if (!part.logits.empty() || !part.topk.empty()) {
        // Late answer: admitted, computed, just slow.
        stats->record_admitted(tenant);
        stats->record(latency_us, tenant);
        stats->record_queue_delay(t.admission_wait_us);
        stats->record_stages(t.admission_wait_us, t.dispatch_delay_us,
                            t.compute_us);
      } else {
        stats->record_shed(tenant);
        stats->record_shed_wait(t.admission_wait_us);
      }
      break;
    case serve::ServeStatus::kShed:
      stats->record_shed(tenant);
      stats->record_shed_wait(t.admission_wait_us);
      break;
    default:
      break;  // kError: counted by the caller via the error itself
  }
}

// Slot ids for one wire call, stored inline in the completion closure.
// Envelopes are nearly always a handful of nodes (single-node submits
// dominate serving traffic), so the common case rides in the closure's own
// allocation instead of paying a separate heap vector per call.
struct SlotList {
  static constexpr std::size_t kInline = 8;
  std::uint32_t inl[kInline];
  std::vector<std::uint32_t> heap;
  std::uint32_t n = 0;

  SlotList(const std::uint32_t* s, std::size_t count)
      : n(static_cast<std::uint32_t>(count)) {
    if (count <= kInline) {
      std::copy(s, s + count, inl);
    } else {
      heap.assign(s, s + count);
    }
  }
  std::size_t size() const { return n; }
  const std::uint32_t* data() const { return heap.empty() ? inl : heap.data(); }
  std::uint32_t operator[](std::size_t i) const { return data()[i]; }
};

}  // namespace

RemoteReplica::RemoteReplica(std::unique_ptr<ChildProcess> proc,
                             std::unique_ptr<RpcClient> client,
                             WireHelloAck ack, RemoteReplicaConfig cfg)
    : proc_(std::move(proc)),
      client_(std::move(client)),
      ack_(ack),
      cfg_(cfg) {}

RemoteReplica::~RemoteReplica() { retire(); }

void RemoteReplica::submit_parts(
    const std::shared_ptr<serve::RequestState>& state,
    const std::uint32_t* slots, std::size_t n, serve::ServerStats* stats,
    FailHandler on_fail) {
  const auto now = std::chrono::steady_clock::now();
  const serve::ServeRequest& req = state->request();

  // Request scratch: call() serializes before returning and never retains
  // the request, so each submitting thread refills one WireRequest whose
  // nodes capacity persists — no per-submit allocation for the wire side.
  thread_local WireRequest wreq;
  wreq.priority = req.priority;
  // The tenant travels with the parts (v2 wire); on a v1 connection the
  // encoder drops it and the replica bills tenant 0.
  wreq.tenant = req.tenant;
  // Always ship full logits: top-k truncation is the FRONT's RequestState
  // contract (its finish_part computes it), and keeping the replica
  // mode-agnostic means a re-routed part can land anywhere.
  wreq.mode = serve::ResultMode::kFullLogits;
  wreq.deadline_rel_us = deadline_to_budget_us(req.deadline, now);
  wreq.nodes.clear();
  wreq.nodes.reserve(n);
  SlotList slot_vec(slots, n);
  for (std::size_t i = 0; i < n; ++i) {
    wreq.nodes.push_back(req.nodes[slots[i]]);
  }

  // Hang detector: generous slack past the in-band deadline; the in-band
  // deadline is what actually sheds work, this only catches dead peers.
  std::chrono::milliseconds timeout = cfg_.request_timeout;
  if (wreq.deadline_rel_us >= 0) {
    const auto budget =
        std::chrono::milliseconds(wreq.deadline_rel_us / 1000 + 2000);
    if (budget < timeout) timeout = budget;
  }

  client_->call(
      wreq, timeout,
      [state, slot_vec = std::move(slot_vec), stats,
       on_fail = std::move(on_fail), now,
       tenant = req.tenant](RpcClient::Result& res) mutable {
        // Transport failure, a draining replica, or a malformed response
        // (part-count mismatch): nothing was finished — hand every slot
        // back for re-routing.
        if (!res.transport_ok ||
            res.response.status == serve::ServeStatus::kDraining ||
            res.response.parts.size() != slot_vec.size()) {
          on_fail(state,
                  std::vector<std::uint32_t>(
                      slot_vec.data(), slot_vec.data() + slot_vec.size()));
          return;
        }
        const double latency_us =
            std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                std::chrono::steady_clock::now() - now)
                .count();
        for (std::size_t i = 0; i < slot_vec.size(); ++i) {
          const WirePart& part = res.response.parts[i];
          std::exception_ptr error;
          if (part.status == serve::ServeStatus::kError) {
            error = std::make_exception_ptr(std::runtime_error(
                res.response.error.empty() ? "remote replica backend error"
                                           : res.response.error));
          }
          record_part(stats, part, res.response.timings, latency_us, tenant);
          state->finish_part(slot_vec[i], part.status,
                             part.logits.empty() ? nullptr
                                                 : part.logits.data(),
                             part.logits.size(), res.response.timings, error);
        }
      });
}

int RemoteReplica::retire() {
  std::lock_guard<std::mutex> lk(retire_mu_);
  if (retired_) return exit_code_;
  retired_ = true;
  if (proc_) {
    proc_->send_signal(SIGTERM);
    if (!proc_->wait_exit(cfg_.drain_grace, &exit_code_)) {
      proc_->send_signal(SIGKILL);
      proc_->wait_exit(std::chrono::milliseconds(2000), &exit_code_);
    }
  }
  // After the child is gone: any stragglers fail into their handlers and
  // re-route (never lost, possibly recomputed).
  client_->shutdown();
  return exit_code_;
}

void RemoteReplica::kill_now() {
  if (proc_) proc_->send_signal(SIGKILL);
}

std::shared_ptr<RemoteReplica> spawn_replica_process(
    const ReplicaSpawnConfig& cfg, std::size_t ordinal, std::string* err) {
  const std::string binary = cfg.server_binary.empty()
                                 ? self_exe_dir() + "/replica_server_cli"
                                 : cfg.server_binary;
  const std::string socket_path =
      cfg.socket_dir + "/replica-" + std::to_string(ordinal) + ".sock";
  const std::string address = "unix:" + socket_path;

  SpawnSpec spec;
  spec.binary = binary;
  spec.log_path = cfg.log_path;
  spec.args.push_back("--socket=" + address);
  for (const std::string& a : cfg.server_args) spec.args.push_back(a);

  auto proc = ChildProcess::spawn(spec, err);
  if (!proc) return nullptr;

  RpcClientConfig ccfg = cfg.client;
  ccfg.address = address;
  auto client = std::make_unique<RpcClient>(ccfg);
  WireHelloAck ack;
  std::string herr;
  if (!client->handshake(&ack, &herr)) {
    // An exec failure shows up here too (the child exits 127 and the
    // connect never succeeds); surface its exit code when we have one.
    int code = -1;
    const bool exited = proc->poll_exit(&code);
    if (err) {
      *err = "replica " + std::to_string(ordinal) + " handshake: " + herr;
      if (exited) *err += " (server exited with code " +
                          std::to_string(code) + ")";
    }
    return nullptr;  // ChildProcess dtor SIGKILLs + reaps
  }
  return std::make_shared<RemoteReplica>(std::move(proc), std::move(client),
                                         ack, cfg.replica);
}

}  // namespace ppgnn::rpc
