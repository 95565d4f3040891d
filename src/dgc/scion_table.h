// Scion table: incoming remote references protecting local objects.
//
// A scion pins its target object against the local GC. Scions are created by
// the scion-first handshake (AddScion) or locally when this process exports
// one of its own objects. They die through the acyclic reference-listing
// protocol (NewSetStubs), orphan expiry, a DCDA cycle-found verdict or the
// eviction of their holder; whatever a scion carries leaves with it.
//
// Confirmation state machine (loss/reorder safety of NewSetStubs):
//   pending   — created, the holder process has never mentioned the ref yet.
//               Deletable by NewSetStubs only after a grace period (covers
//               the window where the reference is still in flight).
//   confirmed — the holder listed the ref in a NewSetStubs; from then on
//               NewSetStubs from the holder is authoritative (stale messages
//               are rejected by export_seq). An invocation through the ref
//               does not confirm it: a NewSetStubs the holder built before
//               installing the ref may arrive after the invocation.
#pragma once

#include <cstdint>
#include <map>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct ScionEntry {
  /// Process holding (or about to hold) the matching stub.
  ProcessId holder = kNoProcess;
  /// The local object this scion protects.
  ObjectSeq target = kNoObject;
  /// Invocation counter mirror of the stub's.
  std::uint64_t ic = 0;
  bool confirmed = false;
  SimTime created_at = 0;
  /// Last time `ic` changed; drives the DCDA candidate quarantine.
  SimTime last_ic_change = 0;
  /// Whether the target was reachable from local roots at the last LGC.
  bool target_root_reachable = true;
  /// Heap slot of `target` as the last LGC found it; a hint, checked on use
  /// (Heap::resolve).
  std::uint32_t target_slot = ~std::uint32_t{0};
  /// Consecutive detections for this scion that timed out, and the
  /// earliest time the next one may launch (exponential relaunch backoff).
  std::uint32_t detection_timeouts = 0;
  SimTime relaunch_not_before = 0;
};

class ScionTable {
 public:
  /// Inserts (idempotently) a scion. Returns the entry.
  ScionEntry& ensure(RefId ref, ProcessId holder, ObjectSeq target, SimTime now);

  ScionEntry* find(RefId ref);
  const ScionEntry* find(RefId ref) const;
  bool contains(RefId ref) const { return entries_.contains(ref); }
  void erase(RefId ref) { entries_.erase(ref); }

  std::size_t size() const { return entries_.size(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Records an accepted export_seq; returns false if `seq` is stale
  /// (≤ the recorded one), in which case the message must be ignored.
  bool accept_export_seq(ProcessId holder, std::uint64_t seq);

  /// Erases every scion `holder` holds, and its export_seq watermark (an
  /// evicted peer: its fresh incarnation restarts the series from an
  /// incarnation-epoched value that sorts above everything anyway). Returns
  /// the number of scions erased.
  std::size_t drop_holder(ProcessId holder);

 private:
  std::map<RefId, ScionEntry> entries_;  // ordered: deterministic iteration
  std::map<ProcessId, std::uint64_t> export_seq_;
};

}  // namespace adgc
