#include "src/dgc/stub_table.h"

namespace adgc {

StubEntry& StubTable::ensure(RefId ref, ObjectId target, SimTime now) {
  auto [it, inserted] = entries_.try_emplace(ref);
  if (inserted) {
    it->second.ref = ref;
    it->second.target = target;
    it->second.created_at = now;
    ++versions_[target.owner];
  }
  return it->second;
}

void StubTable::erase(RefId ref) {
  auto it = entries_.find(ref);
  if (it == entries_.end()) return;
  ++versions_[it->second.target.owner];
  entries_.erase(it);
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
