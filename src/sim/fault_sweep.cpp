#include "src/sim/fault_sweep.h"

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/common/log.h"
#include "src/mc/oracles.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc::sim {

FaultSweepParams crash_preset(std::uint64_t seed) {
  FaultSweepParams p;
  p.seed = seed;
  p.plant = Plant::kFig3;
  p.procs = 4;
  p.crash = CrashPlan::kRotate;
  p.quiet_us = 400'000;
  p.slice_us = 850'000;
  p.slices = 4;
  p.settle_us = 9'600'000;
  return p;
}

FaultSweepParams chaos_preset(std::uint64_t seed) {
  FaultSweepParams p;
  p.seed = seed;
  p.loss = 0.10;
  p.dup = 0.05;
  p.rotate_partition = true;
  p.crash = CrashPlan::kRotate;
  p.victim = 3;  // each crash lands on the far side of the slice's partition
  return p;
}

FaultSweepParams eviction_preset(std::uint64_t seed) {
  FaultSweepParams p;
  p.seed = seed;
  p.plant = Plant::kRing;
  p.crash = CrashPlan::kForever;
  p.victim = 2;  // off P0, which owns the ring's anchor
  p.invoke_period_us = 50'000;
  p.peer_death_timeout_us = 1'000'000;
  p.quiet_us = 100'000;
  p.slice_us = 5'000'000;
  p.slices = 1;
  p.settle_us = 0;
  return p;
}

namespace {

constexpr SimTime kWarmupUs = 400'000;
constexpr SimTime kDownUs = 50'000;

std::filesystem::path sweep_dir(const FaultSweepParams& p) {
  if (!p.snapshot_dir.empty()) return p.snapshot_dir;
  std::ostringstream name;
  name << "adgc_fault_sweep_" << ::getpid() << "_" << p.seed;
  return std::filesystem::temp_directory_path() / name.str();
}

/// Builds the planted garbage, still pinned; returns the roots to drop.
std::vector<ObjectId> plant(Runtime& rt, const FaultSweepParams& p) {
  switch (p.plant) {
    case Plant::kFig3: return {build_fig3(rt).A};
    case Plant::kFig3Fig4: {
      const ObjectId a = build_fig3(rt).A;
      // Fig. 4 is garbage from the moment it is built; pin one object on its
      // cycle so it stays live through the warmup.
      const ObjectId f = build_fig4(rt).F;
      rt.proc(f.owner).add_root(f.seq);
      return {a, f};
    }
    case Plant::kRing:
      return {build_ring(rt, p.procs, /*objs_per_proc=*/1, /*pin_first=*/true).anchors[0]};
  }
  return {};
}

/// Sentinel oracle: L_p and N_{p+1} are reachable from a root while their
/// keeper is up; N_{p+1} is gone once its keeper L_p is down for good.
/// Returns the first violation.
std::optional<std::string> check_sentinels(const Runtime& rt, const std::vector<ObjectId>& L,
                                           const std::vector<ObjectId>& N) {
  const std::size_t n = rt.size();
  const auto live = global_live_set(rt);
  for (ProcessId pid = 0; pid < n; ++pid) {
    if (!rt.alive(pid)) continue;
    const ProcessId keeper = static_cast<ProcessId>((pid + n - 1) % n);
    std::ostringstream why;
    if (!live.contains(L[pid])) {
      why << "rooted sentinel " << to_string(L[pid]) << " unreachable";
    } else if (rt.alive(keeper) && !live.contains(N[pid])) {
      why << "sentinel " << to_string(N[pid]) << " unreachable, keeper P" << keeper << " up";
    } else if (!rt.alive(keeper) && rt.proc(pid).heap().exists(N[pid].seq)) {
      why << "sentinel " << to_string(N[pid]) << " outlived its keeper P" << keeper;
    }
    if (!why.str().empty()) return why.str();
  }
  return std::nullopt;
}

/// Stranded-state oracle: no survivor keeps a stub toward, or a scion from,
/// a process that is down. Returns the first violation.
std::optional<std::string> check_no_stranded(const Runtime& rt) {
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    std::ostringstream why;
    for (const auto& [ref, stub] : rt.proc(pid).stubs()) {
      if (rt.alive(stub.target.owner)) continue;
      why << "P" << pid << " keeps stub " << ref_to_string(ref) << " to P" << stub.target.owner;
      return why.str();
    }
    for (const auto& [ref, scion] : rt.proc(pid).scions()) {
      if (scion.holder >= rt.size() || rt.alive(scion.holder)) continue;
      why << "P" << pid << " keeps scion " << ref_to_string(ref) << " from P" << scion.holder;
      return why.str();
    }
  }
  return std::nullopt;
}

}  // namespace

FaultSweepResult run_fault_sweep(const FaultSweepParams& p) {
  const std::size_t n = p.procs;
  if (p.victim >= n) throw std::invalid_argument("fault sweep: victim out of range");
  const bool restarts = p.crash == CrashPlan::kRotate;
  const std::filesystem::path dir = sweep_dir(p);
  if (restarts) std::filesystem::remove_all(dir);  // stale state from an aborted run

  RuntimeConfig cfg = fast_config(p.seed);
  cfg.proc.batching_enabled = p.batching;
  cfg.proc.snapshot_pipeline = p.snapshot_pipeline;
  cfg.proc.peer_death_timeout_us = p.peer_death_timeout_us;
  if (restarts) cfg.proc.snapshot_dir = dir.string();

  FaultSweepResult res;
  {
    Runtime rt(n, cfg);
    const std::vector<ObjectId> planted_roots = plant(rt, p);

    std::vector<ObjectId> L, N;
    std::vector<RefId> sentinel_refs;
    for (ProcessId pid = 0; pid < n; ++pid) {
      L.push_back(ObjectId{pid, rt.proc(pid).create_object()});
      N.push_back(ObjectId{pid, rt.proc(pid).create_object()});
      rt.proc(pid).add_root(L.back().seq);
    }
    for (ProcessId pid = 0; pid < n; ++pid) {
      sentinel_refs.push_back(rt.link(L[pid], N[(pid + 1) % n]));
    }

    // Runs `us` of simulated time. With a sentinel workload it runs in
    // invoke periods, each opening with one round of invocations from every
    // live process whose sentinel ref still exists (eviction retires the
    // stub toward a dead peer; invoking a gone ref would throw).
    const auto advance = [&](SimTime us) {
      if (p.invoke_period_us == 0) {
        rt.run_for(us);
        return;
      }
      for (SimTime t = 0; t < us; t += p.invoke_period_us) {
        for (ProcessId pid = 0; pid < n; ++pid) {
          if (!rt.alive(pid) || !rt.proc(pid).stubs().contains(sentinel_refs[pid])) continue;
          rt.proc(pid).invoke(L[pid].seq, sentinel_refs[pid], InvokeEffect::kTouch, {},
                              /*want_reply=*/true);
        }
        rt.run_for(p.invoke_period_us);
      }
    };

    advance(kWarmupUs);
    for (const ObjectId root : planted_roots) rt.proc(root.owner).remove_root(root.seq);
    rt.run_for(p.quiet_us);

    rt.network().set_loss_probability(p.loss);
    rt.network().set_duplicate_probability(p.dup);
    for (std::size_t slice = 0; slice < p.slices; ++slice) {
      const ProcessId a = static_cast<ProcessId>(slice % n);
      const ProcessId b = static_cast<ProcessId>((slice + 1) % n);
      if (p.rotate_partition) {
        rt.network().set_link_blocked(a, b, true);
        rt.network().set_link_blocked(b, a, true);
      }
      SimTime left = p.slice_us;
      if (restarts || (p.crash == CrashPlan::kForever && slice == 0)) {
        const ProcessId victim = static_cast<ProcessId>((p.victim + slice) % n);
        rt.crash(victim);
        ++res.crashes;
        if (restarts) {
          advance(kDownUs);
          if (rt.restart(victim)) ++res.recovered;
          left -= kDownUs;
        }
      }
      advance(left);
      if (p.rotate_partition) {
        rt.network().set_link_blocked(a, b, false);
        rt.network().set_link_blocked(b, a, false);
      }
    }
    rt.network().set_loss_probability(0.0);
    rt.network().set_duplicate_probability(0.0);
    advance(p.settle_us);

    // Every process is up again unless the crash plan killed it for good.
    const auto sentinels = check_sentinels(rt, L, N);
    const auto garbage = mc::check_no_garbage(rt);
    const auto stranded = check_no_stranded(rt);
    res.sentinels_ok = !sentinels;
    res.no_garbage = !garbage;
    res.no_stranded = !stranded;
    std::ostringstream detail;
    if (sentinels) detail << "sentinels: " << *sentinels << "; ";
    if (garbage) detail << "garbage: " << *garbage << "; ";
    if (stranded) detail << "stranded: " << *stranded << "; ";
    res.detail = detail.str();
    res.metrics = rt.total_metrics();
  }

  if (restarts) std::filesystem::remove_all(dir);
  return res;
}

namespace {

/// One comparison leg: a 12-process garbage ring under sustained loss, plus
/// a periodic third-party re-export (the AddScion retry path) driven from
/// P0. The CDM hop limit is set below the ring length, so no detection can
/// ever complete: both legs sit in the *persistent*-failure regime — a
/// garbage structure beyond the hop budget, every launch timing out — which
/// is exactly where fixed-interval relaunching hammers the network and
/// exponential backoff pays off. (Eventual collection is the chaos sweep's
/// business, not this harness's; here the cycle staying uncollected keeps
/// the two legs statistically comparable for the whole run.)
/// Returns the runtime's total metrics after `run_us`.
Metrics backoff_leg(std::uint64_t seed, double loss, SimTime run_us, bool adaptive) {
  constexpr std::size_t kRingProcs = 12;
  RuntimeConfig cfg = fast_config(seed);
  cfg.proc.adaptive_faults = adaptive;
  cfg.proc.cdm_hop_limit = kRingProcs - 4;  // detections always time out
  Runtime rt(kRingProcs, cfg);
  const Ring ring = build_ring(rt, kRingProcs, 1, /*pin_first=*/true);

  // Handshake workload: X0 (rooted on P0) holds references to Xa on P10 and
  // Xb on P11; every period P0 invokes Xa passing the Xb reference as a
  // third-party argument — a scion-first AddScion handshake toward P11 that
  // must be retried under loss.
  const ObjectId X0{0, rt.proc(0).create_object()};
  const ObjectId Xa{10, rt.proc(10).create_object()};
  const ObjectId Xb{11, rt.proc(11).create_object()};
  rt.proc(0).add_root(X0.seq);
  rt.proc(10).add_root(Xa.seq);
  rt.proc(11).add_root(Xb.seq);
  const RefId via = rt.link(X0, Xa);
  const RefId held = rt.link(X0, Xb);

  rt.run_for(50'000);  // build-out settles fault-free
  rt.proc(0).remove_root(ring.anchors[0].seq);  // the ring becomes garbage
  rt.network().set_loss_probability(loss);
  const SimTime invoke_period = 20'000;
  for (SimTime t = 0; t < run_us; t += invoke_period) {
    rt.proc(0).invoke(X0.seq, via, InvokeEffect::kTouch, {ArgRef::held(held)},
                      /*want_reply=*/true);
    rt.run_for(invoke_period);
  }
  return rt.total_metrics();
}

}  // namespace

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss, SimTime run_us) {
  BackoffComparison out;
  // Hop-limit CDM drops are this scenario's working condition, not an
  // anomaly; don't let their per-message warnings flood the output.
  const LogLevel saved = Log::level();
  if (saved < LogLevel::kError) Log::set_level(LogLevel::kError);
  const Metrics adaptive = backoff_leg(seed, loss, run_us, /*adaptive=*/true);
  const Metrics fixed = backoff_leg(seed, loss, run_us, /*adaptive=*/false);
  Log::set_level(saved);
  out.adaptive_retry_messages = adaptive.add_scion_retries.get() + adaptive.cdms_sent.get();
  out.fixed_retry_messages = fixed.add_scion_retries.get() + fixed.cdms_sent.get();
  out.adaptive_total_messages = adaptive.messages_sent.get();
  out.fixed_total_messages = fixed.messages_sent.get();
  return out;
}

}  // namespace adgc::sim
