// Stub table: outgoing remote references held by this process.
//
// One StubEntry per remote reference (RefId); several heap objects may hold
// the same reference — the holder count is maintained by the Process as
// fields are added/removed and corrected by the LGC sweep.
#pragma once

#include <cstdint>
#include <map>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct StubEntry {
  RefId ref = kNoRef;
  /// The remote object this reference designates.
  ObjectId target;
  /// Invocation counter; incremented on every call/reply through the ref.
  std::uint64_t ic = 0;
  /// Number of heap objects currently holding this reference.
  std::uint32_t holders = 0;
  /// Whether some holder is reachable from the local root (set by the LGC).
  bool local_reach = false;
  SimTime created_at = 0;
};

class StubTable {
 public:
  /// Inserts or returns the existing entry for `ref`.
  StubEntry& ensure(RefId ref, ObjectId target, SimTime now);

  StubEntry* find(RefId ref);
  const StubEntry* find(RefId ref) const;
  bool contains(RefId ref) const { return entries_.contains(ref); }
  void erase(RefId ref) { entries_.erase(ref); }

  std::size_t size() const { return entries_.size(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::map<RefId, StubEntry> entries_;  // ordered: deterministic iteration
};

}  // namespace adgc
