// Stub table: outgoing remote references held by this process.
//
// One StubEntry per remote reference (RefId): its target, its invocation
// counter and a dense slot. Which heap objects hold a stub is the heap's
// business; each LGC marks the held stubs by slot and deletes the rest.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct StubEntry {
  /// The remote object this reference designates.
  ObjectId target;
  /// Invocation counter; incremented on every call/reply through the ref.
  std::uint64_t ic = 0;
  /// Dense index the table gives the entry (StubTable::resolve); stable
  /// while the entry lives, reused after it is erased.
  std::uint32_t slot = 0;
};

class StubTable {
 public:
  /// Inserts or returns the existing entry for `ref`.
  StubEntry& ensure(RefId ref, ObjectId target);

  StubEntry* find(RefId ref);
  const StubEntry* find(RefId ref) const;
  bool contains(RefId ref) const { return entries_.contains(ref); }
  void erase(RefId ref);

  /// The slot of `ref` (~0 if none), through `hint` while that slot is still
  /// ref's, else looked up with the hint refreshed: the LGC counts holders
  /// into arrays by slot, with no map lookup per remote field.
  std::uint32_t resolve(RefId ref, std::uint32_t& hint) const;
  /// One past the highest slot.
  std::uint32_t slot_end() const { return static_cast<std::uint32_t>(slot_ref_.size()); }
  /// The ref whose entry has `slot`; kNoRef for a free slot.
  RefId ref_at(std::uint32_t slot) const { return slot_ref_[slot]; }

  /// Version of the listing toward `owner` (the refs a NewSetStubs to it
  /// carries): inserting or erasing a stub toward `owner` advances it, and
  /// it never returns to an earlier value until forget_owner(owner). Equal
  /// versions, equal listings.
  std::uint64_t listing_version(ProcessId owner) const;
  /// Every owner a stub ever pointed at (since it was last forgotten), in
  /// ProcessId order, with its listing version: the processes this one
  /// sends NewSetStubs to.
  const std::map<ProcessId, std::uint64_t>& listing_versions() const { return versions_; }
  /// Drops `owner`'s listing version (an evicted peer, once its stubs are
  /// retired).
  void forget_owner(ProcessId owner) { versions_.erase(owner); }

  std::size_t size() const { return entries_.size(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::map<RefId, StubEntry> entries_;  // ordered: deterministic iteration
  std::map<ProcessId, std::uint64_t> versions_;
  std::vector<RefId> slot_ref_;  // slot -> its entry's ref; kNoRef when free
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace adgc
