#include "src/baseline/backtrace_detector.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/rt/process.h"

namespace adgc {

BacktraceDetector::BacktraceDetector(Process& proc, BaselineCounters& counters)
    : proc_(proc), counters_(counters) {}

void BacktraceDetector::start(RefId candidate) {
  const ScionEntry* scion = proc_.scions().find(candidate);
  if (!scion || scion->target_root_reachable) return;

  Trace tr;
  tr.trace_id = next_trace_++;
  tr.candidate = candidate;
  tr.start_ic = scion->ic;
  tr.started_at = proc_.now();

  const std::uint64_t req = next_req_++;
  traces_.emplace(req, tr);
  request(scion->holder, {tr.trace_id, req, candidate, {candidate}, /*depth=*/1});
}

void BacktraceDetector::request(ProcessId dst, const BacktraceRequestMsg& msg) {
  counters_.backtrace_requests.add();
  proc_.send_encoded(dst, encode_baseline(msg));
}

void BacktraceDetector::reply(ProcessId dst, std::uint64_t trace_id, std::uint64_t req_id,
                              bool reachable) {
  counters_.backtrace_replies.add();
  proc_.send_encoded(dst, encode_baseline(BacktraceReplyMsg{trace_id, req_id, reachable}));
}

void BacktraceDetector::on_request(ProcessId src, const BacktraceRequestMsg& msg) {
  max_depth_seen_ = std::max(max_depth_seen_, msg.depth);
  auto answer = [&](bool reachable) { reply(src, msg.trace_id, msg.req_id, reachable); };

  const auto summary = proc_.current_summary();
  if (!summary) {
    answer(true);  // cannot prove anything: conservatively "reachable"
    return;
  }
  const StubSummary* stub = summary->stub(msg.subject_ref);
  if (!stub) {
    // Not in our snapshot: unknown state, stay conservative.
    answer(true);
    return;
  }
  if (stub->local_reach) {
    answer(true);
    return;
  }
  // Recurse into every scion converging on this stub that the trace has not
  // visited yet. A dependency already on the path closes a loop: it cannot
  // make the subject reachable by itself.
  std::vector<RefId> deps;
  for (RefId d : stub->scions_to) {
    if (std::find(msg.visited.begin(), msg.visited.end(), d) == msg.visited.end()) {
      deps.push_back(d);
    }
  }
  if (deps.empty()) {
    answer(false);
    return;
  }

  const std::uint64_t key = next_node_key_++;
  Node node;
  node.trace_id = msg.trace_id;
  node.parent_req = msg.req_id;
  node.reply_to = src;
  node.created_at = proc_.now();

  for (RefId d : deps) {
    const ScionSummary* dep = summary->scion(d);
    if (!dep || dep->holder == kNoProcess) continue;  // unknown: skip branch
    const std::uint64_t child = next_req_++;
    node.children.push_back(child);
    child_to_node_.emplace(child, key);
    ++node.pending;

    BacktraceRequestMsg fwd{msg.trace_id, child, d, msg.visited, msg.depth + 1};
    fwd.visited.push_back(d);
    request(dep->holder, fwd);
  }
  if (node.pending == 0) {
    answer(false);
    return;
  }
  nodes_.emplace(key, std::move(node));
}

void BacktraceDetector::on_reply(ProcessId /*src*/, const BacktraceReplyMsg& msg) {
  // Root of a trace?
  if (traces_.contains(msg.req_id)) {
    finish_trace(msg.req_id, msg.reachable);
    return;
  }
  auto cit = child_to_node_.find(msg.req_id);
  if (cit == child_to_node_.end()) return;  // late/duplicate reply
  const std::uint64_t key = cit->second;
  child_to_node_.erase(cit);
  auto nit = nodes_.find(key);
  if (nit == nodes_.end()) return;
  Node& node = nit->second;
  if (msg.reachable) {
    reply(node.reply_to, node.trace_id, node.parent_req, true);  // one live path suffices
    drop_node(key);
    return;
  }
  if (--node.pending == 0) {
    reply(node.reply_to, node.trace_id, node.parent_req, false);
    drop_node(key);
  }
}

void BacktraceDetector::drop_node(std::uint64_t key) {
  auto it = nodes_.find(key);
  if (it == nodes_.end()) return;
  for (std::uint64_t child : it->second.children) child_to_node_.erase(child);
  nodes_.erase(it);
}

void BacktraceDetector::finish_trace(std::uint64_t req_id, bool reachable) {
  auto it = traces_.find(req_id);
  if (it == traces_.end()) return;
  const Trace tr = it->second;
  traces_.erase(it);
  if (reachable) return;

  // Trace proved the candidate unreachable; revalidate the live scion
  // before acting (simplified stand-in for the baseline's transfer barrier).
  const ScionEntry* scion = proc_.scions().find(tr.candidate);
  if (!scion || scion->ic != tr.start_ic || scion->target_root_reachable) return;
  ADGC_INFO("P" << proc_.id() << " backtrace deletes scion " << ref_to_string(tr.candidate));
  proc_.drop_scion(tr.candidate);
  counters_.backtrace_cycles_found.add();
  proc_.metrics().scions_deleted_cyclic.add();
}

void BacktraceDetector::expire(SimTime now, SimTime max_age) {
  for (auto it = traces_.begin(); it != traces_.end();) {
    if (it->second.started_at + max_age <= now) {
      it = traces_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<std::uint64_t> stale;
  for (const auto& [key, node] : nodes_) {
    if (node.created_at + max_age <= now) stale.push_back(key);
  }
  for (std::uint64_t key : stale) drop_node(key);
}

}  // namespace adgc
