#include "tests/lgc_oracle.h"

#include <sstream>

namespace adgc {

std::unordered_set<ObjectSeq> reach_from(const Heap& heap,
                                         const std::vector<ObjectSeq>& seeds) {
  std::unordered_set<ObjectSeq> marked;
  std::vector<ObjectSeq> stack;
  for (ObjectSeq s : seeds) {
    if (heap.exists(s) && marked.insert(s).second) stack.push_back(s);
  }
  while (!stack.empty()) {
    const ObjectSeq cur = stack.back();
    stack.pop_back();
    for (ObjectSeq next : heap.find(cur)->local_fields) {
      if (heap.exists(next) && marked.insert(next).second) stack.push_back(next);
    }
  }
  return marked;
}

namespace {

/// Every object of the heap, by seq, through the public API only.
std::vector<ObjectSeq> all_seqs(const Heap& heap) {
  std::vector<ObjectSeq> out;
  for (Slot s = 0; s < heap.slot_end(); ++s) {
    if (const HeapObject* obj = heap.at(s)) out.push_back(obj->seq);
  }
  return out;
}

}  // namespace

LgcOutcome expected_lgc(const Heap& heap, const StubTable& stubs, const ScionTable& scions,
                        const std::set<RefId>& pinned) {
  LgcOutcome out;
  const std::vector<ObjectSeq> roots(heap.roots().begin(), heap.roots().end());
  const std::unordered_set<ObjectSeq> from_root = reach_from(heap, roots);
  std::vector<ObjectSeq> seeds = roots;
  for (const auto& [ref, scion] : scions) seeds.push_back(scion.target);
  const std::unordered_set<ObjectSeq> live = reach_from(heap, seeds);

  std::map<RefId, std::uint32_t> holders;
  for (const auto& [ref, stub] : stubs) holders[ref] = 0;
  for (ObjectSeq seq : all_seqs(heap)) {
    if (!live.contains(seq)) {
      ++out.objects_reclaimed;
      continue;
    }
    const HeapObject* obj = heap.find(seq);
    out.objects[seq] = {obj->local_fields, obj->remote_fields};
    for (RefId ref : obj->remote_fields) {
      if (auto it = holders.find(ref); it != holders.end()) ++it->second;
    }
  }
  for (const auto& [ref, count] : holders) {
    if (count == 0 && !pinned.contains(ref)) {
      ++out.stubs_deleted;
    } else {
      out.stubs.insert(ref);
    }
  }
  for (const auto& [ref, scion] : scions) {
    out.target_root_reachable[ref] = from_root.contains(scion.target);
  }
  return out;
}

LgcOutcome observed_lgc(const Heap& heap, const StubTable& stubs, const ScionTable& scions,
                        const lgc::Result& res) {
  LgcOutcome out;
  out.objects_reclaimed = res.objects_reclaimed;
  out.stubs_deleted = res.stubs_deleted;
  for (ObjectSeq seq : all_seqs(heap)) {
    const HeapObject* obj = heap.find(seq);
    out.objects[seq] = {obj->local_fields, obj->remote_fields};
  }
  for (const auto& [ref, stub] : stubs) out.stubs.insert(ref);
  for (const auto& [ref, scion] : scions) {
    out.target_root_reachable[ref] = scion.target_root_reachable;
  }
  return out;
}

std::string describe_difference(const LgcOutcome& want, const LgcOutcome& got) {
  std::ostringstream os;
  if (want.objects_reclaimed != got.objects_reclaimed) {
    os << "reclaimed " << want.objects_reclaimed << " != " << got.objects_reclaimed << "; ";
  }
  if (want.stubs_deleted != got.stubs_deleted) {
    os << "stubs_deleted " << want.stubs_deleted << " != " << got.stubs_deleted << "; ";
  }
  for (const auto& [seq, fields] : want.objects) {
    auto it = got.objects.find(seq);
    if (it == got.objects.end()) os << "object " << seq << " missing; ";
    else if (it->second != fields) os << "object " << seq << " fields differ; ";
  }
  for (const auto& [seq, fields] : got.objects) {
    if (!want.objects.contains(seq)) os << "object " << seq << " survived; ";
  }
  for (RefId ref : want.stubs) {
    if (!got.stubs.contains(ref)) os << "stub " << ref << " missing; ";
  }
  for (RefId ref : got.stubs) {
    if (!want.stubs.contains(ref)) os << "stub " << ref << " survived; ";
  }
  if (want.target_root_reachable != got.target_root_reachable) {
    os << "target_root_reachable differs; ";
  }
  return os.str();
}

}  // namespace adgc
