// Cycle-candidate selection heuristic.
//
// The paper (§2.1) guesses that an object is part of a distributed garbage
// cycle when it is kept alive solely by remote references and has not been
// invoked for a while. Concretely, a scion qualifies when:
//   * its target was NOT reachable from local roots at the last LGC run;
//   * its invocation counter has been stable for the quarantine period;
//   * it appears in the current summarized snapshot with the same IC
//     (otherwise the snapshot is stale for it);
//   * it can reach at least one outgoing stub in the snapshot (a scion whose
//     subtree never leaves the process cannot close a distributed cycle);
//   * no detection is already in flight for it.
#pragma once

#include <vector>

#include "src/common/config.h"
#include "src/dcda/detection_manager.h"
#include "src/dgc/scion_table.h"
#include "src/net/peer_health.h"
#include "src/snapshot/snapshot.h"

namespace adgc {

/// Eligible candidates, oldest-quiet first (least recent IC change), up to
/// the free in-flight detection budget. `peers` (optional) switches on the
/// adaptive-degradation inputs: a candidate whose relaunch backoff has not
/// run out (ScionEntry::relaunch_not_before, set after timeouts) is skipped,
/// and one whose first CDM hop would cross a suspected link is ranked after
/// all healthy ones — the in-flight budget is spent where CDMs have a chance
/// of arriving.
std::vector<RefId> select_candidates(const ScionTable& scions, const SummarizedGraph* snap,
                                     const DetectionManager& manager,
                                     const ProcessConfig& cfg, SimTime now,
                                     const PeerHealthTracker* peers = nullptr,
                                     Metrics* metrics = nullptr);

}  // namespace adgc
