// Scion table: incoming remote references protecting local objects.
//
// A scion pins its target object against the local GC. Scions are created by
// the scion-first handshake (AddScion) or locally when this process exports
// one of its own objects, and die either through the acyclic reference-
// listing protocol (NewSetStubs) or through a DCDA cycle-found verdict.
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
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct ScionEntry {
  RefId ref = kNoRef;
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

  /// Scions held by `holder` (the subject of one NewSetStubs message).
  std::vector<RefId> refs_from_holder(ProcessId holder) const;

  /// Records an accepted export_seq; returns false if `seq` is stale
  /// (≤ the recorded one), in which case the message must be ignored.
  bool accept_export_seq(ProcessId holder, std::uint64_t seq);

  /// Drops all per-holder bookkeeping (the export_seq watermark) for an
  /// evicted peer. Its fresh incarnation restarts the series from an
  /// incarnation-epoched value that sorts above everything anyway; keeping
  /// the entry would only leak a map slot per evicted peer.
  void forget_holder(ProcessId holder) { export_seq_.erase(holder); }

 private:
  std::map<RefId, ScionEntry> entries_;  // ordered: deterministic iteration
  std::map<ProcessId, std::uint64_t> export_seq_;
};

}  // namespace adgc
