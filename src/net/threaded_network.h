// In-memory network of the real multi-threaded runtime.
//
// Decides the fate of every message and keeps the membership table; the
// destination's ActorHost mailbox holds what it delivers. Messages are
// delivered immediately (thread scheduling provides the asynchrony); loss,
// duplication and partitions are still injectable so the loss-tolerance
// properties can be exercised under true concurrency.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/message.h"

namespace adgc {

class ThreadedNetwork {
 public:
  /// Hands a delivered envelope to its destination; called on the sender's
  /// thread.
  using DeliverFn = std::function<void(Envelope)>;

  ThreadedNetwork(std::size_t num_processes, NetworkConfig cfg, std::uint64_t seed,
                  Metrics& metrics, DeliverFn deliver);

  /// Sends a message; may drop or duplicate per the config. Stamps the
  /// envelope with the sender's incarnation and the current view of the
  /// destination's; drops it outright when the destination is down.
  void send(Envelope env);

  // ---- membership (crash/restart fault model) ----
  /// Marks a process down/up. While down, send() drops messages to it.
  void set_down(ProcessId pid, bool down);
  bool is_down(ProcessId pid) const;
  /// Bumps the incarnation (restart); returns the new value.
  Incarnation bump_incarnation(ProcessId pid);
  Incarnation incarnation(ProcessId pid) const;

  // ---- link faults (omission/partition fault model) ----
  /// Blocks/unblocks the directed link a→b (network partition). Blocked
  /// messages count as lost — a partition IS sustained omission.
  void set_link_blocked(ProcessId a, ProcessId b, bool blocked);
  /// Retunes loss/duplication mid-run (chaos harness phases).
  void set_loss_probability(double p);
  void set_duplicate_probability(double p);

 private:
  /// Lock-free membership entry; read on every send, written only by the
  /// runtime's crash/restart paths.
  struct PeerState {
    std::atomic<Incarnation> inc{0};
    std::atomic<bool> down{false};
  };

  NetworkConfig cfg_;
  Metrics& metrics_;
  DeliverFn deliver_;
  std::mutex rng_mu_;  // guards rng_, cfg_ fault knobs and blocked_
  Rng rng_;
  std::set<std::pair<ProcessId, ProcessId>> blocked_;
  std::vector<PeerState> peers_;
};

}  // namespace adgc
