#include "src/dgc/reference_listing.h"

#include <algorithm>
#include <span>
#include <vector>

namespace adgc {

std::map<ProcessId, NewSetStubsMsg> build_all_new_set_stubs(
    const StubTable& stubs, const std::set<ProcessId>& contacts) {
  std::map<ProcessId, NewSetStubsMsg> out;
  for (ProcessId dst : contacts) out[dst];  // empty sets are meaningful
  for (const auto& [ref, stub] : stubs) {
    auto it = out.find(stub.target.owner);
    if (it != out.end()) it->second.live.push_back(ref);
  }
  return out;
}

ApplyNssResult apply_new_set_stubs(ScionTable& scions, ProcessId holder,
                                   const NewSetStubsMsg& msg, SimTime now,
                                   SimTime pending_grace) {
  ApplyNssResult res;
  if (!scions.accept_export_seq(holder, msg.export_seq)) {
    res.stale = true;
    return res;
  }
  // The scion table iterates in RefId order and a decoded listing is
  // ascending, so the two are walked in step; a listing built out of order
  // is sorted first.
  std::span<const RefId> live = msg.live;
  std::vector<RefId> sorted;
  if (!std::ranges::is_sorted(live)) {
    sorted.assign(live.begin(), live.end());
    std::ranges::sort(sorted);
    live = sorted;
  }
  auto next = live.begin();
  std::vector<RefId> doomed;
  for (auto& [ref, scion] : scions) {
    if (scion.holder != holder) continue;
    while (next != live.end() && *next < ref) ++next;
    if (next != live.end() && *next == ref) {
      if (!scion.confirmed) {
        scion.confirmed = true;
        ++res.confirmed;
      }
      continue;
    }
    if (scion.confirmed) {
      // The holder's live stub set is authoritative once confirmed.
      doomed.push_back(ref);
    } else if (now >= scion.created_at + pending_grace) {
      // Never confirmed and the in-flight window has long closed: the
      // exported reference was lost or dropped before arrival.
      doomed.push_back(ref);
    }
  }
  for (RefId ref : doomed) scions.erase(ref);
  res.deleted = doomed.size();
  return res;
}

}  // namespace adgc
