// ReplicaServer: one InferenceSession served over ppgnn-wire.
//
// The server is deliberately the LOCAL serving stack behind a socket: each
// decoded Request becomes a RequestState submitted to a real MicroBatcher,
// so admission control, priority classes, deadline shedding and per-stage
// timings all behave exactly as they do in-process — the wire adds
// transport, not a second policy implementation.  Responses are encoded by
// the envelope's completion sink (running on the batcher's dispatcher
// thread) into the owning connection's outbox; a single poll() loop accepts
// connections, reads frames, and flushes outboxes.
//
// Shutdown contract (the Draining half of the fleet's lifecycle): when the
// stop flag rises — replica_server_cli raises it from SIGTERM — the server
// stops accepting connections, answers any NEW request kDraining (the front
// re-routes those), lets every already-admitted part finish and flush, then
// stops the batcher and returns.  A front that SIGTERMs a replica therefore
// loses nothing: admitted work is answered, unadmitted work is bounced
// somewhere else.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "rpc/buffer.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/server_stats.h"

namespace ppgnn::rpc {

struct ReplicaServerConfig {
  std::string address;  // unix:/path or tcp:host:port
  serve::MicroBatchConfig batch;
  // How long run() waits for in-flight work to flush after the stop flag
  // rises before giving up on stragglers.
  std::chrono::milliseconds drain_timeout{10000};
  // Encode buffers kept warm per connection (rpc/buffer.h free list).
  std::size_t frame_pool_buffers = FramePool::kDefaultMaxFree;
};

class ReplicaServer {
 public:
  // Takes the session; the config's batch knobs drive its MicroBatcher.
  ReplicaServer(std::unique_ptr<serve::InferenceSession> session,
                const ReplicaServerConfig& cfg);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  // Binds, serves until *stop becomes nonzero, drains, returns 0 on a clean
  // exit (nonzero on bind/protocol-level failures).  `stop` is typically
  // flipped by a SIGTERM handler (replica_server_cli) or another thread;
  // a handler may store only to a lock-free atomic.
  static_assert(std::atomic<int>::is_always_lock_free);
  int run(const std::atomic<int>* stop);

  const serve::ServerStats& stats() const { return *stats_; }
  serve::InferenceSession& session() { return *session_; }
  // Transport counters aggregated over all connections this server ran
  // (closed ones fold in as they go).  Meaningful after run() returns;
  // replica_server_cli prints them so the CI log artifact carries the
  // server-side half of the fast-path evidence.
  const RpcStats& rpc_stats() const { return rpc_stats_; }

 private:
  struct Impl;
  std::unique_ptr<serve::InferenceSession> session_;
  std::unique_ptr<serve::ServerStats> stats_;
  ReplicaServerConfig cfg_;
  RpcStats rpc_stats_;
};

}  // namespace ppgnn::rpc
