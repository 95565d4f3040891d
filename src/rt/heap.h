// Per-process object heap.
//
// Objects hold two kinds of outgoing references: local (ObjectSeq within the
// same process) and remote (RefId of a stub in the process's stub table).
// Fields are multisets — an object may hold the same reference twice, and
// removal removes one occurrence.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
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

class Heap {
 public:
  /// Allocates a fresh object with `payload_bytes` of (zeroed) payload.
  ObjectSeq allocate(std::size_t payload_bytes = 0);

  bool exists(ObjectSeq seq) const { return objects_.contains(seq); }
  HeapObject* find(ObjectSeq seq);
  const HeapObject* find(ObjectSeq seq) const;

  /// Removes the object outright (used by the sweep phase). The caller is
  /// responsible for stub holder bookkeeping.
  void remove(ObjectSeq seq) { objects_.erase(seq); }

  /// Reinstates an object under its original sequence number (snapshot
  /// recovery after a restart). Advances the allocator past it so sequence
  /// numbers are never reused within the process.
  void adopt(HeapObject obj);

  /// Raises the next allocation sequence to at least `floor`. Restarted
  /// processes call this with an incarnation-partitioned floor so objects
  /// allocated by the lost incarnation can never share a sequence number
  /// with new ones.
  void set_next_seq_floor(ObjectSeq floor);

  // --- roots ---
  void add_root(ObjectSeq seq) { roots_.insert(seq); }
  void remove_root(ObjectSeq seq) { roots_.erase(seq); }
  bool is_root(ObjectSeq seq) const { return roots_.contains(seq); }
  const std::set<ObjectSeq>& roots() const { return roots_; }

  // --- fields (multiset semantics; remove_* erases one occurrence) ---
  void add_local_field(ObjectSeq from, ObjectSeq to);
  bool remove_local_field(ObjectSeq from, ObjectSeq to);
  void add_remote_field(ObjectSeq from, RefId ref);
  bool remove_remote_field(ObjectSeq from, RefId ref);

  std::size_t size() const { return objects_.size(); }
  const std::unordered_map<ObjectSeq, HeapObject>& objects() const { return objects_; }
  std::unordered_map<ObjectSeq, HeapObject>& objects() { return objects_; }

 private:
  std::unordered_map<ObjectSeq, HeapObject> objects_;
  std::set<ObjectSeq> roots_;
  ObjectSeq next_seq_ = 1;
};

}  // namespace adgc
