// The equivalence oracle for lgc::run: the collector as it was before the
// heap had slots — two marks through hash sets, a map lookup per remote
// field — written to be obviously right rather than fast. The LGC tests,
// the randomized equivalence family and the snapshot-decode fuzz harness
// compare lgc::run's outcome with it.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/lgc/mark_sweep.h"

namespace adgc {

/// Objects transitively reachable from `seeds` through local fields.
std::unordered_set<ObjectSeq> reach_from(const Heap& heap,
                                         const std::vector<ObjectSeq>& seeds);

/// Everything one LGC decides: the survivors with their fields, the
/// surviving stubs, and each scion's target_root_reachable.
struct LgcOutcome {
  std::size_t objects_reclaimed = 0;
  std::size_t stubs_deleted = 0;
  std::map<ObjectSeq, std::pair<std::vector<ObjectSeq>, std::vector<RefId>>> objects;
  std::set<RefId> stubs;
  std::map<RefId, bool> target_root_reachable;

  bool operator==(const LgcOutcome&) const = default;
};

/// What lgc::run must produce on this state (which is left untouched).
LgcOutcome expected_lgc(const Heap& heap, const StubTable& stubs, const ScionTable& scions,
                        const std::set<RefId>& pinned);

/// The state as lgc::run left it, with the counts it returned.
LgcOutcome observed_lgc(const Heap& heap, const StubTable& stubs, const ScionTable& scions,
                        const lgc::Result& res);

/// A readable account of how two outcomes differ ("" when equal).
std::string describe_difference(const LgcOutcome& want, const LgcOutcome& got);

}  // namespace adgc
