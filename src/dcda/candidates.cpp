#include "src/dcda/candidates.h"

#include <algorithm>

namespace adgc {

std::vector<RefId> select_candidates(const ScionTable& scions, const SummarizedGraph* snap,
                                     const DetectionManager& manager,
                                     const ProcessConfig& cfg, SimTime now,
                                     const PeerHealthTracker* peers,
                                     Metrics* metrics) {
  std::vector<RefId> out;
  if (!snap) return out;
  const std::size_t budget =
      cfg.max_inflight_detections > manager.in_flight()
          ? cfg.max_inflight_detections - manager.in_flight()
          : 0;
  if (budget == 0) return out;

  struct Eligible {
    RefId ref;
    SimTime last_ic_change;
    bool suspect_hop = false;  // some first CDM hop crosses a suspected link
  };
  std::vector<Eligible> eligible;
  for (const auto& [ref, scion] : scions) {
    if (scion.target_root_reachable) continue;
    if (now < scion.last_ic_change + cfg.candidate_quarantine_us) continue;
    const ScionSummary* sum = snap->scion(ref);
    if (!sum || sum->ic != scion.ic) continue;
    if (sum->stubs_from.empty()) continue;
    if (manager.candidate_active(ref)) continue;
    if (peers && now < scion.relaunch_not_before) {
      if (metrics) metrics->detections_deferred_backoff.add();
      continue;
    }
    Eligible e{ref, scion.last_ic_change, false};
    if (peers && cfg.adaptive_faults) {
      // A detection needs every branch to come back; one suspected first hop
      // is enough to make it a bad use of the in-flight budget right now.
      for (RefId stub_ref : sum->stubs_from) {
        const StubSummary* stub = snap->stub(stub_ref);
        if (stub && peers->suspected(stub->target.owner)) {
          e.suspect_hop = true;
          break;
        }
      }
      if (e.suspect_hop && metrics) metrics->candidates_deprioritized.add();
    }
    eligible.push_back(e);
  }
  if (eligible.empty()) return out;

  // Oldest-quiet first: the longest-untouched scion is the likeliest
  // garbage (the paper's §2.1 intuition).
  std::stable_sort(eligible.begin(), eligible.end(), [](const Eligible& a, const Eligible& b) {
    return a.last_ic_change < b.last_ic_change;
  });

  // Suspected-hop candidates sink below every healthy one (stable: the
  // oldest-quiet order is preserved within each class). They are still
  // taken when the budget allows — deprioritized, never starved.
  std::stable_partition(eligible.begin(), eligible.end(),
                        [](const Eligible& e) { return !e.suspect_hop; });

  const std::size_t take = std::min(budget, eligible.size());
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(eligible[i].ref);
  return out;
}

}  // namespace adgc
