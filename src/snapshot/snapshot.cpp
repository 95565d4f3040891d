#include "src/snapshot/snapshot.h"

#include <algorithm>

namespace adgc {

SnapshotData capture_snapshot(ProcessId pid, SimTime now, const Heap& heap,
                              const StubTable& stubs, const ScionTable& scions) {
  SnapshotData snap;
  snap.pid = pid;
  snap.taken_at = now;
  snap.roots.assign(heap.roots().begin(), heap.roots().end());

  snap.objects.reserve(heap.size());
  for (const auto& [seq, obj] : heap.objects()) {
    SnapshotData::Obj o;
    o.seq = seq;
    o.local_fields = obj.local_fields;
    o.remote_fields = obj.remote_fields;
    o.payload = obj.payload;
    snap.objects.push_back(std::move(o));
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(snap.objects.begin(), snap.objects.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });

  snap.stubs.reserve(stubs.size());
  for (const auto& [ref, stub] : stubs) {
    snap.stubs.push_back({ref, stub.target, stub.ic});
  }
  snap.scions.reserve(scions.size());
  for (const auto& [ref, scion] : scions) {
    snap.scions.push_back({ref, scion.holder, scion.target, scion.ic});
  }
  return snap;
}

void restore_snapshot(const SnapshotData& snap, Heap& heap, StubTable& stubs,
                      ScionTable& scions, SimTime now) {
  for (const auto& o : snap.objects) {
    HeapObject obj;
    obj.seq = o.seq;
    obj.local_fields = o.local_fields;
    obj.remote_fields = o.remote_fields;
    obj.payload = o.payload;
    heap.adopt(std::move(obj));
  }
  for (ObjectSeq root : snap.roots) heap.add_root(root);

  for (const auto& s : snap.stubs) {
    StubEntry& e = stubs.ensure(s.ref, s.target, now);
    e.ic = s.ic;
    e.holders = 0;           // recomputed from the heap below
    e.local_reach = true;    // conservative until the first LGC runs
  }
  // Holder counts are not serialized; they are derivable from the heap.
  for (const auto& [seq, obj] : heap.objects()) {
    (void)seq;
    for (RefId ref : obj.remote_fields) {
      if (StubEntry* e = stubs.find(ref)) ++e->holders;
    }
  }

  for (const auto& s : snap.scions) {
    ScionEntry& e = scions.ensure(s.ref, s.holder, s.target, now);
    e.ic = s.ic;
    e.confirmed = false;     // fresh grace window; holder will re-confirm
    e.created_at = now;
    e.last_ic_change = now;  // re-quarantine against in-flight detections
    e.target_root_reachable = true;
  }
}

}  // namespace adgc
