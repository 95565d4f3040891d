// Real multi-threaded runtime: one OS thread per process, free-running.
//
// Demonstrates the paper's asynchrony claim under true concurrency: no
// barrier, no global clock — each process takes snapshots, runs its LGC and
// exchanges CDMs on its own wall-clock timers.
//
// Processes remain actors: each runs in its own ActorHost, and all
// interaction with a Process goes through post()/post_sync(), which run the
// closure on that process's own thread.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/config.h"
#include "src/common/metrics.h"
#include "src/net/threaded_network.h"
#include "src/rt/actor_host.h"
#include "src/rt/process.h"

namespace adgc {

class ThreadedRuntime {
 public:
  explicit ThreadedRuntime(std::size_t num_processes, RuntimeConfig cfg = {});
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  std::size_t size() const { return hosts_.size(); }

  /// Runs `fn(process)` on the process's own thread, asynchronously. Skipped
  /// silently if the process is crashed when the closure comes up.
  void post(ProcessId pid, std::function<void(Process&)> fn);
  /// Same, but blocks the caller until the closure has run (or been skipped
  /// because the process is down). After shutdown() it runs inline.
  void post_sync(ProcessId pid, std::function<void(Process&)> fn);

  // ---- crash/restart fault injection ----
  /// Kills the process: volatile state and pending timers are discarded on
  /// its own thread; the network stops delivering to it; peers get
  /// on_peer_crashed. Blocks until the state is actually gone. Must be
  /// called from outside the worker threads (e.g. the test driver).
  void crash(ProcessId pid);
  /// Restarts a crashed process under the next incarnation, recovering from
  /// the persistent snapshot store. Blocks until the process is running.
  /// Returns true if a snapshot was recovered.
  bool restart(ProcessId pid);
  bool alive(ProcessId pid) const;
  Incarnation incarnation(ProcessId pid) const;

  /// Stops all worker threads (idempotent). After shutdown the processes
  /// can be inspected directly from the caller's thread.
  void shutdown();
  bool running() const { return !stopped_.load(); }

  /// Direct access; only safe after shutdown() (or from post closures).
  Process& unsafe_proc(ProcessId pid) { return *hosts_.at(pid)->process(); }

  /// Network fault-injection surface (thread-safe: loss, duplication,
  /// link partitions can be flipped mid-run by a chaos driver).
  ThreadedNetwork& network() { return *network_; }

  Metrics total_metrics();

 private:
  RuntimeConfig cfg_;
  Metrics net_metrics_;
  std::unique_ptr<ThreadedNetwork> network_;
  std::vector<std::unique_ptr<ActorHost>> hosts_;
  std::atomic<bool> stopped_{false};
};

}  // namespace adgc
