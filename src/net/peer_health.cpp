#include "src/net/peer_health.h"

#include <algorithm>

namespace adgc {

namespace {

/// EWMA smoothing factor for the per-peer ack/reply latency estimate.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

SimTime backoff_delay(SimTime base_us, SimTime cap_us, int attempt, Rng& rng) {
  if (base_us == 0) base_us = 1;
  SimTime d = base_us;
  for (int i = 0; i < attempt && d < cap_us; ++i) d <<= 1;
  d = std::min(d, std::max<SimTime>(cap_us, 1));
  // Equal jitter: [d/2, d). Always at least 1us so schedule() makes progress.
  const SimTime half = std::max<SimTime>(d / 2, 1);
  return half + rng.below(std::max<SimTime>(d - half, 1));
}

void PeerHealthTracker::on_send(ProcessId peer, SimTime now) {
  Peer& p = slot(peer);
  if (p.outstanding == 0) p.window_start = now;
  if (p.outstanding < ~std::uint32_t{0}) ++p.outstanding;
  p.last_activity = now;
}

void PeerHealthTracker::on_heard(ProcessId peer, SimTime now) {
  Peer& p = slot(peer);
  p.last_heard = now;
  p.consecutive_failures = 0;
  p.outstanding = 0;
  p.window_start = 0;
  p.last_activity = now;
  // Any sign of life clears the sticky flag immediately: a recovered peer
  // must leave the suspected count (and restart its death-timeout clock)
  // even if nobody queries its verdict again.
  p.suspected = false;
  p.suspected_since = 0;
}

void PeerHealthTracker::on_response(ProcessId peer, SimTime rtt_us, SimTime now) {
  Peer& p = slot(peer);
  const double sample = static_cast<double>(rtt_us);
  if (p.srtt_us <= 0.0) {
    p.srtt_us = sample;
  } else {
    p.srtt_us = kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * p.srtt_us;
  }
  p.last_heard = now;
  p.consecutive_failures = 0;
  p.outstanding = 0;
  p.window_start = 0;
  p.last_activity = now;
  p.suspected = false;
  p.suspected_since = 0;
}

void PeerHealthTracker::on_timeout(ProcessId peer, SimTime now) {
  Peer& p = slot(peer);
  if (p.consecutive_failures < ~std::uint32_t{0}) ++p.consecutive_failures;
  p.last_activity = now;
}

bool PeerHealthTracker::compute_suspected(const Peer& p, SimTime now) const {
  if (p.consecutive_failures >= cfg_.suspect_after_failures) return true;
  // Accrual half: only while we are actively trying to reach the peer, and
  // only once the peer has been heard from at least once — phi over an RTT
  // we never observed is noise, and treating every cold peer as suspect
  // measurably delays collection (the failure-count half above covers peers
  // that are down from the start, via explicit retry timeouts). Silence is
  // measured from when the current unanswered window opened (the first send
  // after the peer was last heard), never across idle gaps.
  if (p.outstanding == 0) return false;
  if (p.last_heard == 0) return false;
  const SimTime baseline = std::max(p.last_heard, p.window_start);
  if (baseline == 0 || now <= baseline) return false;
  const double srtt = std::max(p.srtt_us, static_cast<double>(kSuspectRttFloorUs));
  const double silence = static_cast<double>(now - baseline);
  return silence > kSuspectPhi * srtt;
}

bool PeerHealthTracker::suspected(ProcessId peer, SimTime now) {
  Peer& p = slot(peer);
  const bool s = compute_suspected(p, now);
  if (s && !p.suspected) {
    metrics_.peer_suspect_transitions.add();
    p.suspected_since = now;  // rising edge: the sustained-suspicion clock
  } else if (!s) {
    p.suspected_since = 0;
  }
  p.suspected = s;
  return s;
}

double PeerHealthTracker::phi(ProcessId peer, SimTime now) const {
  const Peer* p = find(peer);
  if (!p || p->outstanding == 0 || p->last_heard == 0) return 0.0;
  const SimTime baseline = std::max(p->last_heard, p->window_start);
  if (baseline == 0 || now <= baseline) return 0.0;
  const double srtt = std::max(p->srtt_us, static_cast<double>(kSuspectRttFloorUs));
  return static_cast<double>(now - baseline) / srtt;
}

double PeerHealthTracker::srtt_us(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->srtt_us : 0.0;
}

std::uint32_t PeerHealthTracker::outstanding(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->outstanding : 0;
}

std::uint32_t PeerHealthTracker::consecutive_failures(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->consecutive_failures : 0;
}

std::size_t PeerHealthTracker::suspected_count() const {
  std::size_t n = 0;
  for (const auto& [pid, p] : peers_) {
    (void)pid;
    if (p.suspected) ++n;
  }
  return n;
}

SimTime PeerHealthTracker::suspected_since(ProcessId peer) const {
  const Peer* p = find(peer);
  return p ? p->suspected_since : 0;
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
    if (!p.suspected && now >= p.last_activity && now - p.last_activity >= idle_us) {
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
