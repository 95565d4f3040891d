// Baseline complete DGC #2: synchronized global tracing ("garbage
// collecting the world", Lang/Queinnec/Piquer '92 family, simplified).
//
// A coordinator starts an epoch; every process marks from its local roots,
// propagating marks across remote references (GtMark). Termination is
// detected by counting: the coordinator polls all members and ends the
// epoch when Σsent == Σprocessed, stable across two consecutive complete
// polls (a simplified Safra-style detection — getting this fully right in
// an asynchronous faulty system is exactly the §5 critique, cf. FLP).
// On GtFinish every process deletes its unmarked scions.
//
// Deliberate limitations (it is a *baseline*, run on quiescent systems in
// benches/tests): requires every member to participate — one slow or
// partitioned process stalls the world; mutation during an epoch is handled
// conservatively (scions touched or created after the epoch start survive),
// not precisely; message loss stalls the epoch (no retries). Attached to a
// process by Baselines (baselines.h).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "src/baseline/protocol.h"
#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

class Process;

class GlobalTraceCollector {
 public:
  GlobalTraceCollector(Process& proc, BaselineCounters& counters);

  /// Coordinator side: starts an epoch over `members` (should include the
  /// coordinator itself). Returns false if one is already running.
  bool start_epoch(std::vector<ProcessId> members, SimTime poll_interval_us = 20'000);

  bool coordinating() const { return coordinating_; }
  std::uint64_t completed_epochs() const { return completed_; }

  /// Coordinator side: gives up on a stalled epoch (e.g. a member is
  /// partitioned away — the scenario this baseline cannot survive).
  void abort_epoch() { coordinating_ = false; }

  // Message handlers (wired by Baselines).
  void on_start(ProcessId src, const GtStartMsg& msg);
  void on_mark(ProcessId src, const GtMarkMsg& msg);
  void on_poll(ProcessId src, const GtPollMsg& msg);
  void on_status(ProcessId src, const GtStatusMsg& msg);
  void on_finish(ProcessId src, const GtFinishMsg& msg);

 private:
  void local_mark(ObjectSeq seed);
  void send_poll();

  Process& proc_;
  BaselineCounters& counters_;

  // --- participant state (one epoch at a time) ---
  std::uint64_t epoch_ = 0;
  SimTime epoch_start_time_ = 0;
  bool participating_ = false;
  std::unordered_set<ObjectSeq> marked_objects_;
  std::unordered_set<RefId> marked_stubs_;   // propagated already
  std::unordered_set<RefId> marked_scions_;  // proven reachable this epoch
  std::uint64_t sent_ = 0;
  std::uint64_t processed_ = 0;

  // --- coordinator state ---
  bool coordinating_ = false;
  std::vector<ProcessId> members_;
  SimTime poll_interval_us_ = 20'000;
  std::uint64_t poll_seq_ = 0;
  std::uint64_t next_epoch_ = 1;
  std::map<ProcessId, GtStatusMsg> poll_replies_;  // for the current poll
  std::uint64_t prev_sent_total_ = ~0ULL;
  std::uint64_t prev_processed_total_ = ~0ULL;
  std::uint64_t completed_ = 0;
};

}  // namespace adgc
