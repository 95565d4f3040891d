#include "src/net/peer_health.h"

#include <algorithm>

namespace adgc {

SimTime backoff_delay(SimTime base_us, SimTime cap_us, int attempt, Rng& rng) {
  if (base_us == 0) base_us = 1;
  SimTime d = base_us;
  for (int i = 0; i < attempt && d < cap_us; ++i) d <<= 1;
  d = std::min(d, std::max<SimTime>(cap_us, 1));
  // Equal jitter: [d/2, d). Always at least 1us so schedule() makes progress.
  const SimTime half = std::max<SimTime>(d / 2, 1);
  return half + rng.below(std::max<SimTime>(d - half, 1));
}

void PeerHealthTracker::on_heard(ProcessId peer, SimTime now) {
  Peer& p = peers_[peer];
  p.last_heard = now;
  p.consecutive_failures = 0;
  p.last_activity = now;
}

void PeerHealthTracker::on_timeout(ProcessId peer, SimTime now) {
  Peer& p = peers_[peer];
  if (p.consecutive_failures < ~std::uint32_t{0}) ++p.consecutive_failures;
  p.last_activity = now;
  // The edge is counted where it happens, so the counter follows the
  // peer's failures, not how often anyone asks for the verdict.
  if (p.consecutive_failures == cfg_.suspect_after_failures) {
    metrics_.peer_suspect_transitions.add();
  }
}

bool PeerHealthTracker::suspected(ProcessId peer) const {
  return consecutive_failures(peer) >= cfg_.suspect_after_failures;
}

std::uint32_t PeerHealthTracker::consecutive_failures(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->consecutive_failures : 0;
}

std::size_t PeerHealthTracker::suspected_count() const {
  std::size_t n = 0;
  for (const auto& [pid, p] : peers_) {
    (void)pid;
    if (suspected(p)) ++n;
  }
  return n;
}

SimTime PeerHealthTracker::last_heard(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->last_heard : 0;
}

std::set<ProcessId> PeerHealthTracker::known_peers() const {
  std::set<ProcessId> out;
  for (const auto& [pid, p] : peers_) {
    (void)p;
    out.insert(pid);
  }
  return out;
}

void PeerHealthTracker::erase_peer(ProcessId peer) { peers_.erase(peer); }

std::size_t PeerHealthTracker::prune_idle(SimTime now, SimTime idle_us) {
  std::size_t pruned = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    const Peer& p = it->second;
    if (!suspected(p) && now >= p.last_activity && now - p.last_activity >= idle_us) {
      it = peers_.erase(it);
      ++pruned;
    } else {
      ++it;
    }
  }
  return pruned;
}

void PeerHealthTracker::record_eviction(ProcessId peer, Incarnation incarnation) {
  auto [it, fresh] = tombstones_.try_emplace(peer, incarnation);
  if (!fresh && incarnation > it->second) it->second = incarnation;
}

std::optional<Incarnation> PeerHealthTracker::evicted_incarnation(ProcessId peer) const {
  auto it = tombstones_.find(peer);
  if (it == tombstones_.end()) return std::nullopt;
  return it->second;
}

void PeerHealthTracker::clear_tombstone(ProcessId peer) { tombstones_.erase(peer); }

}  // namespace adgc
