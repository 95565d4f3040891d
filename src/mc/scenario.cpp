#include "src/mc/scenario.h"

#include "src/sim/scenarios.h"

namespace adgc::mc {

namespace {

constexpr SimTime kNever = 1'000'000'000'000ULL;  // 1e12 us, >> kFarFuture

void baseline_snapshots(Runtime& rt) {
  for (ProcessId pid = 0; pid < rt.size(); ++pid) rt.proc(pid).take_snapshot();
}

// ---------------------------------------------------------------- fig1

class Fig1Scenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kFig1; }
  std::size_t num_procs() const override { return 4; }
  void build(Runtime& rt) override {
    fig_ = sim::build_fig1(rt, /*pin_w=*/true);
    baseline_snapshots(rt);
  }
  std::size_t script_size() const override { return 1; }
  void apply_script(Runtime& rt, std::size_t) override {
    rt.proc(fig_.w.owner).remove_root(fig_.w.seq);
  }
  ProcessId script_proc(std::size_t) const override { return fig_.w.owner; }
  std::size_t expected_survivors() const override { return 0; }

 private:
  sim::Fig1 fig_;
};

// ---------------------------------------------------------------- fig3

class Fig3Scenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kFig3; }
  std::size_t num_procs() const override { return 4; }
  void build(Runtime& rt) override {
    fig_ = sim::build_fig3(rt);
    baseline_snapshots(rt);
  }
  std::size_t script_size() const override { return 1; }
  void apply_script(Runtime& rt, std::size_t) override {
    rt.proc(fig_.A.owner).remove_root(fig_.A.seq);
  }
  ProcessId script_proc(std::size_t) const override { return fig_.A.owner; }
  std::size_t expected_survivors() const override { return 0; }

 private:
  sim::Fig3 fig_;
};

// ---------------------------------------------------------------- fig4

class Fig4Scenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kFig4; }
  std::size_t num_procs() const override { return 6; }
  void build(Runtime& rt) override {
    fig_ = sim::build_fig4(rt);
    baseline_snapshots(rt);
  }
  // Garbage from the start: the schedule space is pure collector/network
  // interleaving around two mutually-linked cycles.
  std::size_t script_size() const override { return 0; }
  void apply_script(Runtime&, std::size_t) override {}
  ProcessId script_proc(std::size_t) const override { return 0; }
  std::size_t expected_survivors() const override { return 0; }

 private:
  sim::Fig4 fig_;
};

// ---------------------------------------------------------------- fig5

class Fig5Scenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kFig5; }
  std::size_t num_procs() const override { return 5; }
  void build(Runtime& rt) override {
    fig_ = sim::build_fig5(rt);
    baseline_snapshots(rt);
  }
  std::size_t script_size() const override { return 3; }
  void apply_script(Runtime& rt, std::size_t step) override {
    switch (step) {
      case 0:  // bump F's counters through B's reference
        rt.proc(fig_.B.owner).invoke(fig_.B.seq, fig_.B_to_F, InvokeEffect::kTouch);
        break;
      case 1:  // export J to M: the root switch the detection must not miss
        rt.proc(fig_.F.owner).invoke(fig_.F.seq, fig_.F_to_M, InvokeEffect::kStoreArgs,
                                     {ArgRef::own(fig_.J.seq)});
        break;
      case 2:  // drop the old root path
        rt.proc(fig_.A.owner).remove_root(fig_.A.seq);
        break;
      default:
        break;
    }
  }
  ProcessId script_proc(std::size_t step) const override {
    switch (step) {
      case 0: return fig_.B.owner;
      case 1: return fig_.F.owner;
      default: return fig_.A.owner;
    }
  }
  // Everything but A stays reachable through P3's root → M → J.
  std::size_t expected_survivors() const override { return 7; }

 private:
  sim::Fig5 fig_;
};

// ---------------------------------------------------------------- race

// Fig. 2 in minimal form: cycle x_P0 → y_P1 → z_P2 → x_P0, x rooted. The
// script races a root switch (pin y via an invocation through x_to_y)
// against dropping x's root; with stale snapshots the combined views form a
// false garbage cycle that only the invocation counters reject.
class RaceScenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kRace; }
  std::size_t num_procs() const override { return 3; }
  void build(Runtime& rt) override {
    x_ = ObjectId{0, rt.proc(0).create_object()};
    y_ = ObjectId{1, rt.proc(1).create_object()};
    z_ = ObjectId{2, rt.proc(2).create_object()};
    x_to_y_ = rt.link(x_, y_);
    y_to_z_ = rt.link(y_, z_);
    z_to_x_ = rt.link(z_, x_);
    rt.proc(0).add_root(x_.seq);
    baseline_snapshots(rt);  // pre-mutation views: the stale S2/S3 of Fig. 2
  }
  std::size_t script_size() const override { return 2; }
  void apply_script(Runtime& rt, std::size_t step) override {
    if (step == 0) {
      rt.proc(0).invoke(x_.seq, x_to_y_, InvokeEffect::kPinRoot);
    } else {
      rt.proc(0).remove_root(x_.seq);
    }
  }
  ProcessId script_proc(std::size_t) const override { return 0; }
  // y is pinned as a root at P1 once the script ran: all three survive.
  std::size_t expected_survivors() const override { return 3; }

 private:
  ObjectId x_, y_, z_;
  RefId x_to_y_ = kNoRef, y_to_z_ = kNoRef, z_to_x_ = kNoRef;
};

// ---------------------------------------------------------------- evict

// Permanent-failure eviction in minimal form: P1 roots H which references X
// owned by P0, so P0 holds one scion whose holder is P1. tune_config arms a
// one-microsecond peer_death_timeout with a one-strike suspicion threshold,
// so a handful of kLgc decisions at P0 walk the whole escalation — arm the
// watch, solicit P1's NewSetStubs, score the unanswered probe as a strike,
// then convict the silent suspect into a committed eviction of P1,
// dropping the scion and tombstoning P1's incarnation. P1 watches its
// contact P0 the same way and may evict it first. (Whether a probe goes
// unanswered is itself a scheduling choice: the Explorer decides the fate
// of each NssSolicit and of its answer.) The script keeps invoke/reply
// traffic from P1 in flight so the Explorer can deliver pre-eviction
// messages after the tombstone is in place (Evicted NACK path). Safety must
// hold throughout: eviction may only ever reclaim objects reachable through
// the evicted (tainted) peer, never anything rooted elsewhere.
class EvictScenario final : public Scenario {
 public:
  ScenarioKind kind() const override { return ScenarioKind::kEvict; }
  std::size_t num_procs() const override { return 2; }
  void build(Runtime& rt) override {
    x_ = ObjectId{0, rt.proc(0).create_object()};
    h_ = ObjectId{1, rt.proc(1).create_object()};
    h_to_x_ = rt.link(h_, x_);
    rt.proc(1).add_root(h_.seq);
    baseline_snapshots(rt);
  }
  std::size_t script_size() const override { return 2; }
  void apply_script(Runtime& rt, std::size_t) override {
    // The holder may have evicted the owner first, retiring the stub.
    if (!rt.proc(1).stubs().contains(h_to_x_)) return;
    rt.proc(1).invoke(h_.seq, h_to_x_, InvokeEffect::kTouch, {},
                      /*want_reply=*/true);
  }
  ProcessId script_proc(std::size_t) const override { return 1; }
  // Fault-free without eviction both objects live — but the liveness gate
  // is off (check_liveness), so this is documentation, not an oracle input.
  std::size_t expected_survivors() const override { return 2; }
  void tune_config(RuntimeConfig& cfg) const override {
    cfg.proc.peer_death_timeout_us = 1;
    cfg.proc.suspect_after_failures = 1;  // one unanswered solicit convicts
  }
  bool check_liveness() const override { return false; }

 private:
  ObjectId x_, h_;
  RefId h_to_x_ = kNoRef;
};

}  // namespace

const char* scenario_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kFig1: return "fig1";
    case ScenarioKind::kFig3: return "fig3";
    case ScenarioKind::kFig4: return "fig4";
    case ScenarioKind::kFig5: return "fig5";
    case ScenarioKind::kRace: return "race";
    case ScenarioKind::kEvict: return "evict";
  }
  return "?";
}

std::optional<ScenarioKind> parse_scenario(const std::string& name) {
  if (name == "fig1") return ScenarioKind::kFig1;
  if (name == "fig3") return ScenarioKind::kFig3;
  if (name == "fig4") return ScenarioKind::kFig4;
  if (name == "fig5") return ScenarioKind::kFig5;
  if (name == "race") return ScenarioKind::kRace;
  if (name == "evict") return ScenarioKind::kEvict;
  return std::nullopt;
}

std::unique_ptr<Scenario> make_scenario(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kFig1: return std::make_unique<Fig1Scenario>();
    case ScenarioKind::kFig3: return std::make_unique<Fig3Scenario>();
    case ScenarioKind::kFig4: return std::make_unique<Fig4Scenario>();
    case ScenarioKind::kFig5: return std::make_unique<Fig5Scenario>();
    case ScenarioKind::kRace: return std::make_unique<RaceScenario>();
    case ScenarioKind::kEvict: return std::make_unique<EvictScenario>();
  }
  return nullptr;
}

RuntimeConfig mc_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.net.min_latency_us = 10;
  cfg.net.mean_latency_us = 10;  // ignored: the Explorer's fate hook decides
  cfg.net.loss_probability = 0.0;
  cfg.net.duplicate_probability = 0.0;
  cfg.net.fifo_links = false;

  // The Explorer schedules every collector run as an explicit decision, so
  // the periodic timers are not armed at all. (Merely parking them with a
  // huge period is not enough: start() de-phases the first tick uniformly
  // over the period, which can land inside the exploration horizon — and
  // executing a far-future timer teleports the clock past every grace and
  // expiry guard.)
  cfg.proc.periodic_collectors_enabled = false;
  cfg.proc.lgc_period_us = kNever;
  cfg.proc.snapshot_period_us = kNever;
  cfg.proc.dcda_scan_period_us = kNever;
  cfg.proc.candidate_quarantine_us = 0;
  cfg.proc.scion_pending_grace_us = 10'000;
  cfg.proc.scion_pending_expiry_factor = 1'000'000;  // effectively never
  // Finite: the settle phase advances the clock past it so stuck detections
  // expire and the scan can relaunch survivors.
  cfg.proc.detection_timeout_us = 1'000'000;
  // Adaptive backoff would key off the (infinite) scan period, and batching
  // adds flush-deadline timers — both only pollute the choice space.
  cfg.proc.adaptive_faults = false;
  cfg.proc.batching_enabled = false;
  // Off by default so the existing trace corpus replays unchanged; the
  // Explorer re-enables it when ExplorerOptions::snapshot_pipeline_latency_us
  // is set, which adds the summary-publish timer as a choice point.
  cfg.proc.snapshot_pipeline = false;
  return cfg;
}

}  // namespace adgc::mc
