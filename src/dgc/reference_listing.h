// Acyclic distributed GC: the reference-listing protocol (Shapiro et al.).
//
// After each LGC run a process sends, to every process it has ever held a
// reference into, the complete set of its surviving stubs toward that
// process (NewSetStubs). The receiver deletes scions no longer backed by a
// stub. Messages are cumulative and idempotent; a per-holder export sequence
// rejects stale (reordered) messages, and pending scions (reference still in
// flight toward its future holder) are protected by a grace period.
#pragma once

#include <map>
#include <set>

#include "src/common/config.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/net/message.h"

namespace adgc {

/// Builds the NewSetStubs payload for every contact in `contacts` in ONE
/// pass over the stub table: each lists the live stubs whose target lives at
/// that contact (pinned in-flight exports included — StubTable deletion
/// already spares them, so they are simply present), in stub-table order. A
/// contact with no surviving stubs gets an empty payload, which is
/// meaningful: it deletes the peer's remaining scions. Owners outside
/// `contacts` get nothing. O(stubs + contacts); `export_seq` is left 0 for
/// the caller to stamp per destination.
std::map<ProcessId, NewSetStubsMsg> build_all_new_set_stubs(
    const StubTable& stubs, const std::set<ProcessId>& contacts);

struct ApplyNssResult {
  bool stale = false;          // rejected: export_seq not newer than last seen
  std::size_t deleted = 0;     // scions removed
  std::size_t confirmed = 0;   // pending scions confirmed by this message
};

/// Applies a NewSetStubs from `holder` to the local scion table.
ApplyNssResult apply_new_set_stubs(ScionTable& scions, ProcessId holder,
                                   const NewSetStubsMsg& msg, SimTime now,
                                   SimTime pending_grace);

}  // namespace adgc
