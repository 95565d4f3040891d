// Heap snapshots and their DCDA summarization.
//
// Per the paper (§2.2, §3 "Graph Summarization"): each process periodically,
// and with no coordination whatsoever, serializes its object graph; the
// snapshot is then *summarized* into just the scion/stub relations the cycle
// detector needs:
//    StubsFrom(scion)  — stubs reachable from the scion's target object
//    ScionsTo(stub)    — scions whose target reaches some holder of the stub
//    Local.Reach(stub) — some holder is reachable from the local root
// plus the invocation counters frozen at snapshot time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/rt/heap.h"

namespace adgc {

/// Index of an object in a snapshot; kNoIndex for a reference to none.
inline constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

/// Content of one process snapshot (pre-summarization). The graph is flat:
/// object i has seq seqs[i], its local fields are the object indices
/// edges[edge_at[i], edge_at[i+1]) and its remote fields the refs
/// refs[ref_at[i], ref_at[i+1]), each in field order. References by seq are
/// also resolved once, to indices: root_objs (the objects that are roots,
/// ascending) and Scion::obj. A local field whose target is not in the
/// snapshot is left out.
struct SnapshotData {
  struct Stub {
    RefId ref = kNoRef;
    ObjectId target;
    std::uint64_t ic = 0;
  };
  struct Scion {
    RefId ref = kNoRef;
    ProcessId holder = kNoProcess;
    ObjectSeq target = kNoObject;
    std::uint64_t ic = 0;
    std::uint32_t obj = kNoIndex;  // index of `target`
  };

  ProcessId pid = kNoProcess;
  SimTime taken_at = 0;
  std::vector<ObjectSeq> roots;
  std::vector<std::uint32_t> root_objs;
  std::vector<ObjectSeq> seqs;
  std::vector<std::uint32_t> edge_at{0};
  std::vector<std::uint32_t> edges;
  std::vector<std::uint32_t> ref_at{0};
  std::vector<RefId> refs;
  /// One payload per object, or none at all when the capture left them out.
  std::vector<std::vector<std::byte>> payloads;
  std::vector<Stub> stubs;
  std::vector<Scion> scions;

  std::size_t num_objects() const { return seqs.size(); }
  std::span<const std::uint32_t> local(std::size_t i) const {
    return {edges.data() + edge_at[i], edges.data() + edge_at[i + 1]};
  }
  std::span<const RefId> remote(std::size_t i) const {
    return {refs.data() + ref_at[i], refs.data() + ref_at[i + 1]};
  }
};

/// Captures the current heap + DGC tables into a SnapshotData, in slot
/// order. Object payloads are copied only `with_payloads` (a snapshot store
/// will persist them; the summarizer never reads them).
SnapshotData capture_snapshot(ProcessId pid, SimTime now, const Heap& heap,
                              const StubTable& stubs, const ScionTable& scions,
                              bool with_payloads = false);

/// Resolves the seq-form references of `snap` to object indices: object i's
/// local fields given as local_seqs[edge_at[i], edge_at[i+1]) become
/// `edges` (edge_at rewritten; a field to no object is left out), and the
/// roots and scion targets get root_objs and Scion::obj. A repeated seq
/// resolves to its first object. Returns false when some object's seq is
/// repeated or not adoptable_seq(): a heap could not restore that snapshot.
bool link_snapshot(SnapshotData& snap, const std::vector<ObjectSeq>& local_seqs);

/// Rebuilds heap + DGC tables from a snapshot (crash recovery). The caller
/// provides empty tables. Stubs come back with their targets and ICs (the
/// next LGC finds their holders in the restored heap). Restored scions come
/// back unconfirmed with a fresh grace window and `target_root_reachable =
/// true` — conservative defaults that can delay collection but never delete
/// a live reference. The acyclic protocol (NewSetStubs / AddScion retry) and
/// the next LGC re-derive the exact state.
/// Objects whose seq the heap cannot adopt, and every repeat of a seq after
/// its first, are left out.
void restore_snapshot(const SnapshotData& snap, Heap& heap, StubTable& stubs,
                      ScionTable& scions, SimTime now);

/// Summarized form consumed by the DCDA.
struct ScionSummary {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;
  ProcessId holder = kNoProcess;  // process holding the matching stub
  ObjectSeq target = kNoObject;
  std::vector<RefId> stubs_from;  // sorted
};

struct StubSummary {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;
  ObjectId target;
  bool local_reach = false;
  std::vector<RefId> scions_to;  // sorted
};

struct SummarizedGraph {
  ProcessId pid = kNoProcess;
  SimTime taken_at = 0;
  std::uint64_t version = 0;  // monotonically increasing per process
  std::unordered_map<RefId, ScionSummary> scions;
  std::unordered_map<RefId, StubSummary> stubs;

  const ScionSummary* scion(RefId ref) const {
    auto it = scions.find(ref);
    return it == scions.end() ? nullptr : &it->second;
  }
  const StubSummary* stub(RefId ref) const {
    auto it = stubs.find(ref);
    return it == stubs.end() ? nullptr : &it->second;
  }
};

}  // namespace adgc
