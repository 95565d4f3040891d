#include "src/dgc/stub_table.h"

namespace adgc {

StubEntry& StubTable::ensure(RefId ref, ObjectId target, SimTime now) {
  auto [it, inserted] = entries_.try_emplace(ref);
  if (inserted) {
    it->second.ref = ref;
    it->second.target = target;
    it->second.created_at = now;
  }
  return it->second;
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
