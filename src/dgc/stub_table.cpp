#include "src/dgc/stub_table.h"

namespace adgc {

StubEntry& StubTable::ensure(RefId ref, ObjectId target) {
  auto [it, inserted] = entries_.try_emplace(ref);
  if (inserted) {
    StubEntry& e = it->second;
    e.target = target;
    if (free_slots_.empty()) {
      e.slot = slot_end();
      slot_ref_.push_back(ref);
    } else {
      e.slot = free_slots_.back();
      free_slots_.pop_back();
      slot_ref_[e.slot] = ref;
    }
    ++versions_[target.owner];
  }
  return it->second;
}

void StubTable::erase(RefId ref) {
  auto it = entries_.find(ref);
  if (it == entries_.end()) return;
  ++versions_[it->second.target.owner];
  slot_ref_[it->second.slot] = kNoRef;
  free_slots_.push_back(it->second.slot);
  entries_.erase(it);
}

std::uint32_t StubTable::resolve(RefId ref, std::uint32_t& hint) const {
  if (hint < slot_ref_.size() && slot_ref_[hint] == ref && ref != kNoRef) return hint;
  const StubEntry* e = find(ref);
  return hint = e ? e->slot : ~std::uint32_t{0};
}

std::uint64_t StubTable::listing_version(ProcessId owner) const {
  auto it = versions_.find(owner);
  return it == versions_.end() ? 0 : it->second;
}

StubEntry* StubTable::find(RefId ref) {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

const StubEntry* StubTable::find(RefId ref) const {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace adgc
