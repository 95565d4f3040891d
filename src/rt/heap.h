// Per-process object heap.
//
// Objects hold two kinds of outgoing references: local (ObjectSeq within the
// same process) and remote (RefId of a stub in the process's stub table).
// Fields are multisets — an object may hold the same reference twice, and
// removal removes one occurrence.
//
// Objects live in dense slots (a vector with a free list, walked in slot
// order); the ObjectSeq → slot index serves the API boundary. Beside its
// object a slot caches the slot of each local field's target and a stub-table
// hint per remote field, both checked on use, so a freed or reused slot or a
// field edited through find() never misleads a walk; and it carries its root
// flag and the colour of the last mark.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

struct HeapObject {
  ObjectSeq seq = kNoObject;
  std::vector<ObjectSeq> local_fields;
  std::vector<RefId> remote_fields;
  /// Simulated payload; serialized by snapshot serializers, so its size is
  /// what the serialization benchmarks measure.
  std::vector<std::byte> payload;
};

/// Index of a heap slot. Stable while its object lives; reused once freed.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = ~Slot{0};

/// True for a seq a heap can hold: not kNoObject, and not the one below it,
/// after which the allocator would hand out kNoObject.
constexpr bool adoptable_seq(ObjectSeq seq) { return seq < kNoObject - 1; }

class Heap {
 public:
  /// Allocates a fresh object with `payload_bytes` of (zeroed) payload.
  ObjectSeq allocate(std::size_t payload_bytes = 0);

  bool exists(ObjectSeq seq) const { return index_.contains(seq); }
  HeapObject* find(ObjectSeq seq);
  const HeapObject* find(ObjectSeq seq) const;

  /// Removes the object outright. The caller is responsible for stub holder
  /// bookkeeping.
  void remove(ObjectSeq seq);

  /// Reinstates an object under its original sequence number (snapshot
  /// recovery after a restart), replacing any object with that seq. Advances
  /// the allocator past it so sequence numbers are never reused within the
  /// process. Throws std::invalid_argument unless adoptable_seq(obj.seq).
  void adopt(HeapObject obj);

  /// Raises the next allocation sequence to at least `floor`. Restarted
  /// processes call this with an incarnation-partitioned floor so objects
  /// allocated by the lost incarnation can never share a sequence number
  /// with new ones.
  void set_next_seq_floor(ObjectSeq floor);

  // --- roots ---
  void add_root(ObjectSeq seq);
  void remove_root(ObjectSeq seq);
  bool is_root(ObjectSeq seq) const { return roots_.contains(seq); }
  const std::set<ObjectSeq>& roots() const { return roots_; }

  // --- fields (multiset semantics; remove_* erases one occurrence) ---
  void add_local_field(ObjectSeq from, ObjectSeq to);
  bool remove_local_field(ObjectSeq from, ObjectSeq to);
  void add_remote_field(ObjectSeq from, RefId ref);
  bool remove_remote_field(ObjectSeq from, RefId ref);

  std::size_t size() const { return index_.size(); }

  // --- slots: the view of the collector, the capture and the oracles ---
  Slot slot_of(ObjectSeq seq) const;
  /// `hint` when that slot still holds `seq`, else slot_of(seq): how a
  /// cached slot (a scion's target, say) is read.
  Slot resolve(ObjectSeq seq, Slot hint) const {
    return holds(hint, seq) ? hint : slot_of(seq);
  }
  /// One past the highest slot; slots below it are live or free.
  Slot slot_end() const { return static_cast<Slot>(slots_.size()); }
  /// The object in slot `s`, or null when the slot is free.
  const HeapObject* at(Slot s) const { return live(s) ? &slots_[s].obj : nullptr; }
  HeapObject* at(Slot s) { return live(s) ? &slots_[s].obj : nullptr; }
  /// Frees a live slot (the sweep; `remove` by slot).
  void free(Slot s);
  /// True when the live slot `s` holds a root.
  bool rooted(Slot s) const { return rooted_[s] != 0; }

  /// Calls fn(t) with the slot of each of s's local fields whose target
  /// exists, in field order, re-caching any stale slot on the way.
  template <class Fn>
  void for_each_local(Slot s, Fn&& fn) const;

  /// Starts a mark: returns a colour c above every slot's current colour, so
  /// c and c + 1 can serve as two mark colours with nothing to clear.
  std::uint64_t fresh_colours() { return std::exchange(next_colour_, next_colour_ + 2); }
  std::uint64_t colour(Slot s) const { return colours_[s]; }
  void set_colour(Slot s, std::uint64_t c) { colours_[s] = c; }

  /// One stub-table hint per remote field of the live slot `s`, reset to
  /// kNoSlot if the fields changed behind the heap's back. The heap keeps the
  /// hints aligned with the fields; what they mean is the stub table's
  /// business (StubTable::resolve).
  std::span<std::uint32_t> stub_hints(Slot s);

 private:
  struct SlotData {
    HeapObject obj;                         // obj.seq == kNoObject when free
    mutable std::vector<Slot> local_slots;  // cache: target slot per local field
    std::vector<std::uint32_t> stubs;       // stub-table hint per remote field
  };

  bool live(Slot s) const { return seqs_[s] != kNoObject; }
  bool holds(Slot t, ObjectSeq seq) const {
    return t < seqs_.size() && seq != kNoObject && seqs_[t] == seq;
  }
  SlotData* data(ObjectSeq seq);
  void place(HeapObject obj);

  // Per slot: the object and its caches; and, dense for the collector's
  // scans, its seq (kNoObject when free), mark colour and root flag.
  std::vector<SlotData> slots_;
  std::vector<ObjectSeq> seqs_;
  std::vector<std::uint64_t> colours_;
  std::vector<std::uint8_t> rooted_;
  std::vector<Slot> free_;
  std::unordered_map<ObjectSeq, Slot> index_;
  std::set<ObjectSeq> roots_;
  ObjectSeq next_seq_ = 1;
  std::uint64_t next_colour_ = 1;
};

template <class Fn>
void Heap::for_each_local(Slot s, Fn&& fn) const {
  const SlotData& d = slots_[s];
  const std::vector<ObjectSeq>& fields = d.obj.local_fields;
  if (d.local_slots.size() != fields.size()) d.local_slots.assign(fields.size(), kNoSlot);
  for (std::size_t k = 0; k < fields.size(); ++k) {
    Slot t = d.local_slots[k];
    if (!holds(t, fields[k])) t = d.local_slots[k] = slot_of(fields[k]);
    if (t != kNoSlot) fn(t);
  }
}

}  // namespace adgc
