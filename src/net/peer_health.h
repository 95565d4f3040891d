// Per-peer link-health estimation and adaptive retry policy.
//
// One PeerHealthTracker per process, maintained from that process's own
// observations: round-trip samples from acked handshakes and invocation
// replies, *any* inbound message as a liveness signal, and retry timers
// firing unanswered as failures. From these it derives a lightweight
// phi-accrual-style suspicion verdict per peer:
//
//   suspected(peer)  ⇔  consecutive_failures ≥ suspect_after_failures
//                    ∨  (outstanding > 0 ∧ silence > phi · max(srtt, floor))
//
// where phi and floor are kSuspectPhi and kSuspectRttFloorUs below,
// `silence` is the time since the peer was last heard from and
// `outstanding` counts messages sent to the peer since then (so an idle but
// healthy peer is never suspected — accrual only runs while we are actually
// trying to talk to it).
//
// `outstanding` is the sender-side estimate of queued/in-flight traffic
// toward the peer, reset by any sign of life.
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

/// Accrual threshold: a contacted peer is suspected once it has been silent
/// for more than this many smoothed RTTs.
inline constexpr double kSuspectPhi = 16.0;
/// Lower bound on the RTT the accrual test uses (guards against a few lucky
/// fast samples making the detector hair-triggered).
inline constexpr SimTime kSuspectRttFloorUs = 2'000;

class PeerHealthTracker {
 public:
  struct Peer {
    /// EWMA of observed ack/reply round-trip latency, microseconds.
    double srtt_us = 0.0;          // 0 = no sample yet
    /// Retry timers that fired without the peer answering since it was
    /// last heard from.
    std::uint32_t consecutive_failures = 0;
    /// Last time anything arrived from the peer (0 = never).
    SimTime last_heard = 0;
    /// When the current unanswered-send window opened: the timestamp of the
    /// first on_send() after the peer was last heard from (0 = no window).
    /// The accrual baseline is max(last_heard, window_start) — NOT plain
    /// last_heard — so that under wall clocks (where `now` never restarts at
    /// 0) a long-idle peer is not declared silent the instant we resume
    /// sending to it.
    SimTime window_start = 0;
    /// Messages sent to the peer since it was last heard from — the
    /// sender-side outgoing-window estimate the accrual rule runs on.
    std::uint32_t outstanding = 0;
    /// Sticky flag for metrics: whether the last verdict was "suspected".
    /// Cleared by any sign of life, so a recovered peer leaves the
    /// suspected count even if nobody re-queries its verdict.
    bool suspected = false;
    /// When the sticky flag last rose (0 = not suspected). The permanent-
    /// failure escalation requires suspicion to be *sustained* for
    /// peer_death_timeout before committing the peer dead.
    SimTime suspected_since = 0;
    /// Last send/hear/timeout activity on this slot; idle slots past
    /// peer_health_idle_prune are reclaimed so the table stays bounded
    /// under peer churn.
    SimTime last_activity = 0;
  };

  PeerHealthTracker(const ProcessConfig& cfg, Metrics& metrics)
      : cfg_(cfg), metrics_(metrics) {}

  /// A message was handed to the transport for `peer` at time `now` (take
  /// it from Env::now(); it anchors the suspicion accrual window).
  void on_send(ProcessId peer, SimTime now);

  /// Anything arrived from `peer` (liveness signal: resets the failure count
  /// and the outgoing window).
  void on_heard(ProcessId peer, SimTime now);

  /// An ack/reply arrived whose send time is known: liveness plus an RTT
  /// sample folded into the EWMA.
  void on_response(ProcessId peer, SimTime rtt_us, SimTime now);

  /// A retry timer fired without an answer from `peer`.
  void on_timeout(ProcessId peer, SimTime now);

  /// Current suspicion verdict. Updates the sticky flag and bumps the
  /// suspect-transition counter, so call sites need no extra bookkeeping.
  bool suspected(ProcessId peer, SimTime now);

  /// Accrual value: silence toward an actively-contacted peer, in units of
  /// the smoothed RTT (0 when idle or never contacted). Diagnostics.
  double phi(ProcessId peer, SimTime now) const;

  /// Smoothed RTT estimate (0 when no sample yet).
  double srtt_us(ProcessId peer) const;

  /// Sender-side outgoing-window estimate toward `peer`.
  std::uint32_t outstanding(ProcessId peer) const;

  std::uint32_t consecutive_failures(ProcessId peer) const;

  /// Number of peers currently in the suspected state (diagnostics).
  std::size_t suspected_count() const;

  /// When the current uninterrupted suspicion episode began (0 = the peer is
  /// not suspected, or suspected() was never queried since it rose).
  SimTime suspected_since(ProcessId peer) const;

  /// Last time anything arrived from `peer` (0 = never heard).
  SimTime last_heard(ProcessId peer) const;

  /// Peers with a live health slot (eviction candidate enumeration).
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
  Peer& slot(ProcessId peer) { return peers_[peer]; }
  const Peer* find(ProcessId peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? nullptr : &it->second;
  }
  bool compute_suspected(const Peer& p, SimTime now) const;

  const ProcessConfig& cfg_;
  Metrics& metrics_;
  std::unordered_map<ProcessId, Peer> peers_;
  std::map<ProcessId, Incarnation> tombstones_;
};

}  // namespace adgc
