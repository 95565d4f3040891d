// Standalone-node runtime: one ADGC Process per OS process, over real TCP.
//
// It hosts exactly ONE Process in an ActorHost and bridges the
// TcpTransport's socket event loop onto the actor's single logical thread:
// the IO thread only queues envelopes and closures into the host's mailbox;
// the host's loop thread drains them, pumps wall-clock timers and is the
// only thread that ever touches the Process.
//
// Incarnation recovery across real process kills: the incarnation lives in
// a small file in `state_dir`. Every start reads it, bumps it and writes it
// back *before* going on the network, so a node that was kill-9'd comes
// back under a strictly higher incarnation no matter how it died. Peers
// learn the new incarnation from the connection hello and treat the bump as
// the crash notification (Process::on_peer_crashed), exactly as the
// in-memory runtimes' membership tables do. Envelope staleness filtering
// also mirrors them: inbound envelopes stamped with an older incarnation of
// the sender, or addressed to a dead incarnation of ours, are dropped.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/config.h"
#include "src/common/metrics.h"
#include "src/net/tcp_transport.h"
#include "src/rt/actor_host.h"
#include "src/rt/process.h"

namespace adgc {

class NodeRuntime {
 public:
  struct Options {
    ProcessId pid = 0;
    /// cfg.proc drives the collectors (periods are wall-clock microseconds
    /// here); cfg.net is ignored — latency/loss now come from a real kernel.
    RuntimeConfig cfg;
    std::string listen = "127.0.0.1:0";
    std::map<ProcessId, PeerAddr> peers;
    /// Directory for the incarnation file and (unless cfg.proc.snapshot_dir
    /// is set explicitly) the snapshot store. Empty = fully volatile node:
    /// incarnation 0 every start, no recovery.
    std::string state_dir;
    /// Per-peer transport write-queue bound (frames) before shedding.
    std::size_t peer_queue_limit = 512;
    /// Admin HTTP endpoint (/metrics, /healthz, /tracez) served from the
    /// transport's IO thread. Off by default; "host:port" with port 0 binds
    /// kernel-assigned (see admin_port()).
    bool admin_enabled = false;
    std::string admin_listen = "127.0.0.1:0";
  };

  explicit NodeRuntime(Options opts);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Binds the listen socket, recovers incarnation + snapshot state, starts
  /// the IO and loop threads and kicks off the periodic collectors.
  void start();

  /// Clean drain: stops the loop thread, waits out a running snapshot pass
  /// (so nothing writes to `state_dir` after the return), then gives the
  /// transport up to `drain_us` to flush queued writes. Idempotent (the
  /// SIGTERM path).
  void stop(SimTime drain_us = 200'000);

  bool running() const { return running_.load(std::memory_order_acquire); }
  Incarnation incarnation() const { return incarnation_; }
  /// True once a peer answered this incarnation's traffic with an Evicted
  /// NACK: the cluster has declared us dead. The only safe move is to exit
  /// and restart under a fresh incarnation (tools/adgc_node does exactly
  /// that). Thread-safe.
  bool self_evicted() const { return self_evicted_.load(std::memory_order_acquire); }
  /// True when start() recovered state from a persisted snapshot.
  bool recovered() const { return recovered_; }
  std::uint16_t port() const { return transport_ ? transport_->port() : 0; }
  /// Actual admin endpoint port; 0 when disabled.
  std::uint16_t admin_port() const { return transport_ ? transport_->admin_port() : 0; }

  /// Runs `fn(process)` on the node's loop thread, asynchronously.
  void post(std::function<void(Process&)> fn);
  /// Same, but blocks the caller until the closure ran; inline before
  /// start() and after stop(). Must not be called from the loop thread.
  void post_sync(std::function<void(Process&)> fn);

  /// Direct access; only safe after stop().
  Process& unsafe_proc() { return *host_->process(); }

  TcpTransport& transport() { return *transport_; }
  Metrics total_metrics();
  /// Retained structured-trace events of this node (adgc_node --trace-file).
  /// Thread-safe; empty when tracing is disabled.
  std::vector<obs::Event> trace_events() const;

 private:
  Incarnation load_and_bump_incarnation();
  /// Serves one admin request; runs on the transport IO thread, so it only
  /// reads atomic metrics, the mutex-guarded health cache and the trace ring.
  obs::AdminResponse handle_admin(const obs::HttpRequest& req);
  /// Rebuilds the /healthz body from the Process's peer-health tracker; loop
  /// thread only (the tracker is actor state). Self-rescheduling.
  void refresh_health_cache();

  Options opts_;
  Incarnation incarnation_ = 0;
  bool recovered_ = false;
  Metrics net_metrics_;

  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<ActorHost> host_;

  std::atomic<bool> running_{false};
  std::atomic<bool> self_evicted_{false};

  /// /healthz body, refreshed periodically on the loop thread and served
  /// from the IO thread.
  mutable std::mutex health_mu_;
  std::string health_cache_ = "starting\n";
};

}  // namespace adgc
