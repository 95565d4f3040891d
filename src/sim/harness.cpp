#include "src/sim/harness.h"

#include "src/common/walk.h"

namespace adgc::sim {

std::unordered_set<ObjectId> global_live_set(const Runtime& rt) {
  // Crashed processes contribute nothing: their roots and heaps are gone.
  std::vector<ObjectId> roots;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (ObjectSeq seq : rt.proc(pid).heap().roots()) roots.push_back({pid, seq});
  }
  std::unordered_set<ObjectId> live;
  walk<ObjectId>(
      roots,
      [&](const ObjectId& id) {
        return id.owner < rt.size() && rt.alive(id.owner) &&
               rt.proc(id.owner).heap().exists(id.seq) && live.insert(id).second;
      },
      [&](const ObjectId& cur, const auto& visit) {
        const Process& proc = rt.proc(cur.owner);
        const HeapObject* obj = proc.heap().find(cur.seq);
        for (ObjectSeq next : obj->local_fields) visit({cur.owner, next});
        for (RefId ref : obj->remote_fields) {
          if (const StubEntry* stub = proc.stubs().find(ref)) visit(stub->target);
        }
        return true;
      });
  return live;
}

GlobalStats global_stats(const Runtime& rt) {
  GlobalStats st;
  const auto live = global_live_set(rt);
  st.live_objects = live.size();
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    st.total_objects += rt.proc(pid).heap().size();
    st.stubs += rt.proc(pid).stubs().size();
    st.scions += rt.proc(pid).scions().size();
  }
  st.garbage_objects = st.total_objects - st.live_objects;
  return st;
}

RuntimeConfig manual_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.net.min_latency_us = 10;
  cfg.net.mean_latency_us = 100;
  // Push every periodic task out of the way; tests drive the collectors.
  const SimTime never = 1'000'000'000'000ULL;  // ~11.5 simulated days
  cfg.proc.lgc_period_us = never;
  cfg.proc.snapshot_period_us = never;
  cfg.proc.dcda_scan_period_us = never;
  cfg.proc.candidate_quarantine_us = 0;
  cfg.proc.scion_pending_grace_us = 10'000;
  // Owner-side orphan expiry assumes holders run their LGC regularly; in
  // manual mode tests suspend the LGC for arbitrary stretches, so the
  // timer-based expiry must be effectively off (grace-based deletion via
  // NewSetStubs still applies).
  cfg.proc.scion_pending_expiry_factor = 1'000'000;
  cfg.proc.detection_timeout_us = never;
  return cfg;
}

RuntimeConfig fast_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.net.min_latency_us = 10;
  cfg.net.mean_latency_us = 200;
  cfg.proc.lgc_period_us = 5'000;
  cfg.proc.snapshot_period_us = 12'000;
  cfg.proc.dcda_scan_period_us = 15'000;
  cfg.proc.candidate_quarantine_us = 10'000;
  cfg.proc.scion_pending_grace_us = 60'000;
  cfg.proc.detection_timeout_us = 500'000;
  cfg.proc.add_scion_retry_us = 3'000;
  return cfg;
}

void settle_manual(Runtime& rt, int rounds, SimTime flush_us) {
  for (int r = 0; r < rounds; ++r) {
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_lgc();
    }
    rt.run_for(flush_us);
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).take_snapshot();
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_dcda_scan();
    }
    rt.run_for(flush_us);
  }
}

}  // namespace adgc::sim
