// Local garbage collector: precise mark-sweep over one process's heap.
//
// Contract with the distributed collector (paper §4):
//  * scions act as GC roots — objects protected by an incoming remote
//    reference survive even when locally unreachable;
//  * the LGC reports which stubs survived — stubs with no surviving holder
//    are deleted, and the caller then announces the new stub set via
//    NewSetStubs — and whether each scion's target is root-reachable (the
//    candidate heuristic). Local.Reach is the summarizer's, read off the
//    snapshot (src/snapshot/snapshot.h).
//
// `pinned_stubs` are references currently being exported through the
// scion-first handshake: they must survive (and count as live for
// NewSetStubs) even if no heap object holds them anymore.
//
// One two-colour mark over the heap's slots: what the roots reach gets the
// root colour, what only the scions reach the scion colour, and anything
// left below both is garbage. One pass over the slots then sweeps and marks
// the survivors' stubs held, in an array by stub slot; one pass over that
// array deletes the unheld, unpinned stubs.
#pragma once

#include <set>

#include "src/common/config.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/rt/heap.h"

namespace adgc::lgc {

struct Result {
  std::size_t objects_reclaimed = 0;
  std::size_t stubs_deleted = 0;
};

Result run(Heap& heap, StubTable& stubs, ScionTable& scions,
           const std::set<RefId>& pinned_stubs, SimTime now);

}  // namespace adgc::lgc
