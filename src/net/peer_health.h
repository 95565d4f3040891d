// Per-peer failure counting and adaptive retry policy.
//
// One PeerHealthTracker per process, maintained from that process's own
// observations: *any* inbound message as a liveness signal, and requests
// left unanswered (retry timers, unanswered NssSolicit probes, refused
// connects) as failures. Suspicion means unanswered requests only:
//
//   suspected(peer)  ⇔  consecutive_failures ≥ suspect_after_failures
//
// Silence by itself never raises it — a peer that owes us nothing (the
// owner of a reference we no longer invoke) is silent by design. The
// permanent-failure escalation in Process::maybe_evict_peers turns silence
// into requests by probing, so a dead peer scores failures and a live one
// answers.
// Everything is deterministic; the backoff jitter draws from the caller's
// seeded Rng.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"

namespace adgc {

/// Exponential backoff with deterministic "equal jitter": the delay for
/// `attempt` (0-based) is uniform in [d/2, d) where d = min(cap, base·2^a).
/// Drawing from a seeded Rng keeps runs reproducible while de-phasing
/// retries across processes (synchronized retry bursts are exactly what a
/// congested link does not need).
SimTime backoff_delay(SimTime base_us, SimTime cap_us, int attempt, Rng& rng);

class PeerHealthTracker {
 public:
  struct Peer {
    /// Last time anything arrived from the peer (0 = never).
    SimTime last_heard = 0;
    /// Requests that went unanswered since the peer was last heard from.
    std::uint32_t consecutive_failures = 0;
    /// Last hear/timeout activity on this slot; idle slots past
    /// peer_health_idle_prune are reclaimed so the table stays bounded
    /// under peer churn.
    SimTime last_activity = 0;
  };

  PeerHealthTracker(const ProcessConfig& cfg, Metrics& metrics)
      : cfg_(cfg), metrics_(metrics) {}

  /// Anything arrived from `peer` (liveness signal: resets the failure
  /// count, and with it the suspicion).
  void on_heard(ProcessId peer, SimTime now);

  /// A request to `peer` went unanswered. Counts `peer_suspect_transitions`
  /// when this failure makes the peer a suspect.
  void on_timeout(ProcessId peer, SimTime now);

  /// Current suspicion verdict: at least `suspect_after_failures` requests
  /// unanswered since the peer was last heard from.
  bool suspected(ProcessId peer) const;

  std::uint32_t consecutive_failures(ProcessId peer) const;

  /// Number of peers currently in the suspected state (diagnostics).
  std::size_t suspected_count() const;

  /// Last time anything arrived from `peer` (0 = never heard).
  SimTime last_heard(ProcessId peer) const;

  /// Peers with a live health slot.
  std::set<ProcessId> known_peers() const;

  /// Number of tracked slots (the peer_health_slots gauge).
  std::size_t size() const { return peers_.size(); }

  /// Drops the health slot for `peer` (evicted peers must not keep a slot —
  /// survivor memory is bounded under churn). The eviction tombstone, if
  /// any, is kept: tombstones outlive slots by design.
  void erase_peer(ProcessId peer);

  /// Reclaims slots with no activity for `idle_us` that are not currently
  /// suspected (a suspected slot is evidence, not garbage). Returns the
  /// number pruned.
  std::size_t prune_idle(SimTime now, SimTime idle_us);

  // --- eviction tombstones ---
  // A tombstone {peer → incarnation} records a committed local eviction:
  // every incarnation of `peer` up to and including the recorded one is
  // dead to this process and its traffic is rejected with an Evicted NACK.
  // A strictly higher incarnation clears the tombstone (the peer restarted
  // as demanded). Tombstones are volatile — they die with this process —
  // which is safe: after our own restart the zombie's stale traffic is
  // filtered by the ordinary incarnation checks or re-handshakes from zero.

  /// Records `peer`'s eviction at `incarnation` (the highest one ever seen).
  void record_eviction(ProcessId peer, Incarnation incarnation);

  /// The tombstoned incarnation, or nullopt if `peer` is not evicted.
  std::optional<Incarnation> evicted_incarnation(ProcessId peer) const;

  /// Readmits `peer` (a strictly newer incarnation showed up).
  void clear_tombstone(ProcessId peer);

  const std::map<ProcessId, Incarnation>& eviction_tombstones() const {
    return tombstones_;
  }

 private:
  const Peer* find(ProcessId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? nullptr : &it->second;
  }
  bool suspected(const Peer& p) const {
    return p.consecutive_failures >= cfg_.suspect_after_failures;
  }

  const ProcessConfig& cfg_;
  Metrics& metrics_;
  std::unordered_map<ProcessId, Peer> peers_;
  std::map<ProcessId, Incarnation> tombstones_;
};

}  // namespace adgc
