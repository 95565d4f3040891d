#include "src/lgc/mark_sweep.h"

#include <vector>

#include "src/common/walk.h"

namespace adgc::lgc {

namespace {

/// Colours `colour` every object reachable from `seeds` that is not yet
/// marked in this pass (its colour is below `floor`).
void mark(Heap& heap, const std::vector<Slot>& seeds, std::uint64_t floor,
          std::uint64_t colour) {
  walk<Slot>(
      seeds,
      [&](Slot s) {
        if (s == kNoSlot || heap.colour(s) >= floor) return false;
        heap.set_colour(s, colour);
        return true;
      },
      [&](Slot s, const auto& visit) {
        heap.for_each_local(s, visit);
        return true;
      });
}

}  // namespace

Result run(Heap& heap, StubTable& stubs, ScionTable& scions,
           const std::set<RefId>& pinned_stubs, SimTime /*now*/) {
  Result res;

  // Mark: the root colour first, so the scion colour only takes what the
  // roots do not reach.
  const std::uint64_t root = heap.fresh_colours();
  std::vector<Slot> seeds;
  for (Slot s = 0; s < heap.slot_end(); ++s) {
    if (heap.rooted(s)) seeds.push_back(s);
  }
  mark(heap, seeds, root, root);
  // The root colour is final now: refresh the candidate heuristic's view of
  // each scion's target on the way.
  seeds.clear();
  for (auto& [ref, scion] : scions) {
    const Slot t = scion.target_slot = heap.resolve(scion.target, scion.target_slot);
    scion.target_root_reachable = t != kNoSlot && heap.colour(t) == root;
    seeds.push_back(t);
  }
  mark(heap, seeds, root, root + 1);

  // One pass over the slots: sweep the unmarked, and mark the survivors'
  // stubs held in an array by stub slot.
  std::vector<bool> held(stubs.slot_end(), false);
  for (Slot s = 0; s < heap.slot_end(); ++s) {
    const HeapObject* obj = heap.at(s);
    if (!obj) continue;
    if (heap.colour(s) < root) {
      heap.free(s);
      ++res.objects_reclaimed;
      continue;
    }
    const std::span<std::uint32_t> hints = heap.stub_hints(s);
    for (std::size_t k = 0; k < hints.size(); ++k) {
      const std::uint32_t t = stubs.resolve(obj->remote_fields[k], hints[k]);
      if (t != kNoSlot) held[t] = true;
    }
  }

  // Delete orphaned stubs (unless pinned by an in-flight export).
  for (std::uint32_t t = 0; t < held.size(); ++t) {
    const RefId ref = stubs.ref_at(t);
    if (held[t] || ref == kNoRef || pinned_stubs.contains(ref)) continue;
    stubs.erase(ref);
    ++res.stubs_deleted;
  }
  return res;
}

}  // namespace adgc::lgc
