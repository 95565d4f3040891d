#include "src/baseline/global_trace.h"

#include <algorithm>
#include <deque>

#include "src/common/log.h"
#include "src/rt/process.h"

namespace adgc {

GlobalTraceCollector::GlobalTraceCollector(Process& proc, BaselineCounters& counters)
    : proc_(proc), counters_(counters) {}

bool GlobalTraceCollector::start_epoch(std::vector<ProcessId> members,
                                       SimTime poll_interval_us) {
  if (coordinating_) return false;
  coordinating_ = true;
  members_ = std::move(members);
  // The coordinator is always a participant.
  if (std::find(members_.begin(), members_.end(), proc_.id()) == members_.end()) {
    members_.push_back(proc_.id());
  }
  poll_interval_us_ = poll_interval_us;
  poll_replies_.clear();
  prev_sent_total_ = ~0ULL;
  prev_processed_total_ = ~0ULL;

  const GtStartMsg msg{.epoch = next_epoch_++, .epoch_start = proc_.now()};
  for (ProcessId pid : members_) proc_.send_encoded(pid, encode_baseline(msg));

  const SimTime interval = poll_interval_us_;
  proc_.env().schedule(interval, [this] { send_poll(); });
  return true;
}

void GlobalTraceCollector::send_poll() {
  if (!coordinating_) return;
  poll_replies_.clear();
  // The coordinator participates, so epoch_ is current.
  const GtPollMsg msg{.epoch = epoch_, .poll_seq = ++poll_seq_};
  for (ProcessId pid : members_) proc_.send_encoded(pid, encode_baseline(msg));
  proc_.env().schedule(poll_interval_us_, [this] { send_poll(); });
}

void GlobalTraceCollector::on_start(ProcessId /*src*/, const GtStartMsg& msg) {
  epoch_ = msg.epoch;
  epoch_start_time_ = msg.epoch_start;
  participating_ = true;
  marked_objects_.clear();
  marked_stubs_.clear();
  marked_scions_.clear();
  sent_ = 0;
  processed_ = 0;
  for (ObjectSeq root : proc_.heap().roots()) local_mark(root);
}

void GlobalTraceCollector::local_mark(ObjectSeq seed) {
  std::deque<ObjectSeq> frontier;
  if (proc_.heap().exists(seed) && marked_objects_.insert(seed).second) {
    frontier.push_back(seed);
  }
  while (!frontier.empty()) {
    const ObjectSeq cur = frontier.front();
    frontier.pop_front();
    const HeapObject* obj = proc_.heap().find(cur);
    if (!obj) continue;
    for (ObjectSeq next : obj->local_fields) {
      if (proc_.heap().exists(next) && marked_objects_.insert(next).second) {
        frontier.push_back(next);
      }
    }
    for (RefId ref : obj->remote_fields) {
      if (!marked_stubs_.insert(ref).second) continue;
      const StubEntry* stub = proc_.stubs().find(ref);
      if (!stub) continue;
      ++sent_;
      proc_.send_encoded(stub->target.owner, encode_baseline(GtMarkMsg{epoch_, ref}));
    }
  }
}

void GlobalTraceCollector::on_mark(ProcessId /*src*/, const GtMarkMsg& msg) {
  if (!participating_ || msg.epoch != epoch_) return;  // stale epoch
  ++processed_;
  if (!marked_scions_.insert(msg.ref).second) return;  // already marked
  const ScionEntry* scion = proc_.scions().find(msg.ref);
  if (!scion) return;
  local_mark(scion->target);
}

void GlobalTraceCollector::on_poll(ProcessId src, const GtPollMsg& msg) {
  if (!participating_ || msg.epoch != epoch_) return;
  const GtStatusMsg status{epoch_, msg.poll_seq, sent_, processed_};
  proc_.send_encoded(src, encode_baseline(status));
}

void GlobalTraceCollector::on_status(ProcessId src, const GtStatusMsg& msg) {
  if (!coordinating_ || msg.poll_seq != poll_seq_) return;  // stale poll
  poll_replies_[src] = msg;
  if (poll_replies_.size() < members_.size()) return;

  std::uint64_t sent_total = 0, processed_total = 0;
  for (const auto& [pid, st] : poll_replies_) {
    sent_total += st.marks_sent;
    processed_total += st.marks_processed;
  }
  const bool balanced = sent_total == processed_total;
  const bool stable =
      sent_total == prev_sent_total_ && processed_total == prev_processed_total_;
  prev_sent_total_ = sent_total;
  prev_processed_total_ = processed_total;
  if (!balanced || !stable) return;

  // Terminated: the global trace is complete.
  coordinating_ = false;
  ++completed_;
  const GtFinishMsg fin{epoch_};
  for (ProcessId pid : members_) proc_.send_encoded(pid, encode_baseline(fin));
  ADGC_INFO("P" << proc_.id() << " global trace epoch " << epoch_ << " terminated ("
                << sent_total << " marks)");
}

void GlobalTraceCollector::on_finish(ProcessId /*src*/, const GtFinishMsg& msg) {
  if (!participating_ || msg.epoch != epoch_) return;
  participating_ = false;
  std::vector<RefId> doomed;
  for (const auto& [ref, scion] : proc_.scions()) {
    if (marked_scions_.contains(ref)) continue;
    // Conservative mutation guards: anything created or invoked during the
    // epoch survives until the next epoch.
    if (scion.created_at >= epoch_start_time_) continue;
    if (scion.last_ic_change >= epoch_start_time_) continue;
    doomed.push_back(ref);
  }
  for (RefId ref : doomed) {
    proc_.drop_scion(ref);
    counters_.gt_scions_deleted.add();
  }
  if (!doomed.empty()) {
    ADGC_DEBUG("P" << proc_.id() << " global trace deleted " << doomed.size()
                   << " scions");
  }
}

}  // namespace adgc
