#include "src/snapshot/snapshot.h"

#include <algorithm>

namespace adgc {

SnapshotData capture_snapshot(ProcessId pid, SimTime now, const Heap& heap,
                              const StubTable& stubs, const ScionTable& scions,
                              bool with_payloads) {
  SnapshotData snap;
  snap.pid = pid;
  snap.taken_at = now;
  snap.roots.assign(heap.roots().begin(), heap.roots().end());

  // Object indices follow slot order; index[s] is slot s's.
  std::vector<std::uint32_t> index(heap.slot_end(), kNoIndex);
  snap.seqs.reserve(heap.size());
  for (Slot s = 0; s < heap.slot_end(); ++s) {
    if (const HeapObject* obj = heap.at(s)) {
      index[s] = static_cast<std::uint32_t>(snap.seqs.size());
      if (heap.rooted(s)) snap.root_objs.push_back(index[s]);
      snap.seqs.push_back(obj->seq);
    }
  }
  snap.edge_at.reserve(snap.seqs.size() + 1);
  snap.ref_at.reserve(snap.seqs.size() + 1);
  if (with_payloads) snap.payloads.reserve(snap.seqs.size());
  for (Slot s = 0; s < heap.slot_end(); ++s) {
    const HeapObject* obj = heap.at(s);
    if (!obj) continue;
    heap.for_each_local(s, [&](Slot t) { snap.edges.push_back(index[t]); });
    snap.edge_at.push_back(static_cast<std::uint32_t>(snap.edges.size()));
    snap.refs.insert(snap.refs.end(), obj->remote_fields.begin(), obj->remote_fields.end());
    snap.ref_at.push_back(static_cast<std::uint32_t>(snap.refs.size()));
    if (with_payloads) snap.payloads.push_back(obj->payload);
  }

  snap.stubs.reserve(stubs.size());
  for (const auto& [ref, stub] : stubs) {
    snap.stubs.push_back({ref, stub.target, stub.ic});
  }
  snap.scions.reserve(scions.size());
  for (const auto& [ref, scion] : scions) {
    const Slot t = heap.resolve(scion.target, scion.target_slot);
    snap.scions.push_back(
        {ref, scion.holder, scion.target, scion.ic, t == kNoSlot ? kNoIndex : index[t]});
  }
  return snap;
}

bool link_snapshot(SnapshotData& snap, const std::vector<ObjectSeq>& local_seqs) {
  bool restorable = true;
  std::unordered_map<ObjectSeq, std::uint32_t> index;
  index.reserve(snap.seqs.size());
  for (std::size_t i = 0; i < snap.seqs.size(); ++i) {
    const bool fresh = index.try_emplace(snap.seqs[i], static_cast<std::uint32_t>(i)).second;
    restorable = restorable && fresh && adoptable_seq(snap.seqs[i]);
  }
  const auto index_of = [&](ObjectSeq seq) {
    auto it = index.find(seq);
    return it == index.end() ? kNoIndex : it->second;
  };
  snap.edges.clear();
  std::uint32_t begin = snap.edge_at[0];
  for (std::size_t i = 0; i < snap.seqs.size(); ++i) {
    const std::uint32_t end = snap.edge_at[i + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t t = index_of(local_seqs[k]);
      if (t != kNoIndex) snap.edges.push_back(t);
    }
    begin = end;
    snap.edge_at[i + 1] = static_cast<std::uint32_t>(snap.edges.size());
  }
  snap.edge_at[0] = 0;
  snap.root_objs.clear();
  for (ObjectSeq root : snap.roots) {
    if (const std::uint32_t i = index_of(root); i != kNoIndex) snap.root_objs.push_back(i);
  }
  std::sort(snap.root_objs.begin(), snap.root_objs.end());
  snap.root_objs.erase(std::unique(snap.root_objs.begin(), snap.root_objs.end()),
                       snap.root_objs.end());
  for (SnapshotData::Scion& s : snap.scions) s.obj = index_of(s.target);
  return restorable;
}

void restore_snapshot(const SnapshotData& snap, Heap& heap, StubTable& stubs,
                      ScionTable& scions, SimTime now) {
  for (std::size_t i = 0; i < snap.num_objects(); ++i) {
    const ObjectSeq seq = snap.seqs[i];
    if (!adoptable_seq(seq) || heap.exists(seq)) continue;
    HeapObject obj;
    obj.seq = seq;
    for (std::uint32_t t : snap.local(i)) obj.local_fields.push_back(snap.seqs[t]);
    const std::span<const RefId> refs = snap.remote(i);
    obj.remote_fields.assign(refs.begin(), refs.end());
    if (!snap.payloads.empty()) obj.payload = snap.payloads[i];
    heap.adopt(std::move(obj));
  }
  for (ObjectSeq root : snap.roots) heap.add_root(root);

  for (const auto& s : snap.stubs) stubs.ensure(s.ref, s.target).ic = s.ic;

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
