#include "src/dgc/scion_table.h"

namespace adgc {

ScionEntry& ScionTable::ensure(RefId ref, ProcessId holder, ObjectSeq target, SimTime now) {
  auto [it, inserted] = entries_.try_emplace(ref);
  if (inserted) {
    it->second.holder = holder;
    it->second.target = target;
    it->second.created_at = now;
    it->second.last_ic_change = now;
  }
  return it->second;
}

ScionEntry* ScionTable::find(RefId ref) {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

const ScionEntry* ScionTable::find(RefId ref) const {
  auto it = entries_.find(ref);
  return it == entries_.end() ? nullptr : &it->second;
}

std::size_t ScionTable::drop_holder(ProcessId holder) {
  export_seq_.erase(holder);
  return std::erase_if(entries_, [&](const auto& kv) { return kv.second.holder == holder; });
}

bool ScionTable::accept_export_seq(ProcessId holder, std::uint64_t seq) {
  std::uint64_t& cur = export_seq_[holder];
  if (seq <= cur) return false;
  cur = seq;
  return true;
}

}  // namespace adgc
