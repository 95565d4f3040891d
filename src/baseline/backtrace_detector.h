// Baseline cycle detector: distributed back-tracing in the style of
// Maheshwari & Liskov (PODC'97), simplified.
//
// To decide whether a suspect scion protects garbage, trace *backwards*:
// the scion is reachable iff its matching stub (at the holder) is locally
// reachable there, or some scion converging on that stub (ScionsTo) is
// itself reachable — recursively. The recursion is a chain of remote
// request/reply pairs, and — exactly the drawback the paper's §5 points out —
// every intermediate process must keep per-trace state (the pending-children
// records) until the trace completes.
//
// Used for the comparison benches (messages, chain depth, state held); it
// reuses each process's summarized snapshot so the comparison with the DCDA
// is apples-to-apples. Attached to a process by Baselines (baselines.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/baseline/protocol.h"
#include "src/common/config.h"
#include "src/common/ids.h"

namespace adgc {

class Process;

class BacktraceDetector {
 public:
  BacktraceDetector(Process& proc, BaselineCounters& counters);

  /// Origin side: start a trace on a suspect scion this process owns.
  void start(RefId candidate);

  void on_request(ProcessId src, const BacktraceRequestMsg& msg);
  void on_reply(ProcessId src, const BacktraceReplyMsg& msg);

  /// Drops state for traces older than `max_age` (loss tolerance).
  void expire(SimTime now, SimTime max_age);

  std::size_t state_records() const { return nodes_.size() + traces_.size(); }
  std::uint32_t max_depth_seen() const { return max_depth_seen_; }

 private:
  struct Trace {  // origin-side record
    std::uint64_t trace_id = 0;
    RefId candidate = kNoRef;
    std::uint64_t start_ic = 0;
    SimTime started_at = 0;
  };
  struct Node {  // intermediate-side record (one per forwarded fan-out)
    std::uint64_t trace_id = 0;
    std::uint64_t parent_req = 0;   // req_id to echo upstream
    ProcessId reply_to = kNoProcess;
    std::size_t pending = 0;
    std::vector<std::uint64_t> children;  // child req ids (for cleanup)
    SimTime created_at = 0;
  };

  void request(ProcessId dst, const BacktraceRequestMsg& msg);
  void reply(ProcessId dst, std::uint64_t trace_id, std::uint64_t req_id, bool reachable);
  void drop_node(std::uint64_t key);
  void finish_trace(std::uint64_t req_id, bool reachable);

  Process& proc_;
  BaselineCounters& counters_;
  std::uint64_t next_trace_ = 1;
  std::uint64_t next_req_ = 1;
  std::map<std::uint64_t, Trace> traces_;        // keyed by root req_id
  std::map<std::uint64_t, Node> nodes_;          // keyed by child req_id... see .cpp
  std::map<std::uint64_t, std::uint64_t> child_to_node_;  // child req → node key
  std::uint64_t next_node_key_ = 1;
  std::uint32_t max_depth_seen_ = 0;
};

}  // namespace adgc
