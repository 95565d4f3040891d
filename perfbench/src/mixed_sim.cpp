// mixed_sim — detection under mutation, in simulated time.
//
// Runtime: the deterministic simulator, kProcs processes, default collector
// periods and network model, seeded.
// Load, on a fixed simulated-time schedule (one tick = kTickUs):
//  * a churning mutator of short sessions. Every kSessionEveryTicks a session
//    starts: a rooted holder H on one process with a remote reference to an
//    object T on another. While it lives (kSessionTicks) it calls through the
//    reference — kTouch RMIs that bump invocation counters, and kStoreArgs
//    RMIs that export a fresh object X which points back at H. When it ends,
//    H's root drops and H -> T -> X -> H is a distributed garbage cycle. A
//    fixed start rate and lifetime hold the live set steady;
//  * every kPlantTicks one planted structure, drawn from the seed: a 3-process
//    garbage ring (anchor root dropped kDropDelayUs after planting), the same
//    ring touched by a kTouch RMI just before its root drops (the Fig. 5 race,
//    so detections in flight hit invocation-counter aborts), or a Fig. 4 pair
//    of mutually-linked cycles (garbage from the start).
// Reclaim: from when a planted structure's drop was due until all its objects
// are gone, in simulated ms, checked kReclaimChecksPerTick times per tick. Simulated time excludes CPU,
// so protocol wins (rounds, messages) show here apart from CPU wins, which
// show in cpu_us_per_op and rmi_throughput_cps (mutator RMIs per wall
// second).
// Checks: a ShadowGraph oracle mirrors every mutation; every shadow-live
// object must exist throughout (safety), planted structures must be intact
// until their drop, and after the final drain — all sessions ended, all roots
// of planted structures dropped — the heaps must hold exactly the shadow-live
// objects, the rooted sentinels (convergence).
#include <array>
#include <memory>
#include <random>
#include <stdexcept>

#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/rt/runtime.h"
#include "src/sim/scenarios.h"
#include "src/sim/workload.h"  // ShadowGraph

namespace perfbench {

using namespace adgc;

namespace {

constexpr std::size_t kProcs = 6;
constexpr SimTime kTickUs = 2'000;
constexpr std::size_t kSessionEveryTicks = 25;
constexpr std::size_t kSessionTicks = 100;
constexpr double kSessionOpChance = 0.1;  // per live session per tick
constexpr std::size_t kSessionMaxExports = 2;
constexpr std::size_t kPlantTicks = 40;
constexpr std::size_t kRingProcs = 3;
constexpr std::size_t kRingObjsPerProc = 2;
constexpr SimTime kDropDelayUs = 100'000;
constexpr std::size_t kReclaimChecksPerTick = 8;
constexpr std::size_t kSafetyEveryTicks = 10;
constexpr SimTime kSetupWarmupUs = 5'000'000;
constexpr std::size_t kSegments = 4;  // fresh simulations in the untraced window
constexpr SimTime kDrainSimUs = 120'000'000;
constexpr double kDrainWallS = 60.0;
constexpr double kSampleIntervalS = 0.25;

/// One mutator session: H (rooted, at `h.owner`) holds `ref` to T.
struct Session {
  ObjectId h{kNoProcess, kNoObject}, t{kNoProcess, kNoObject};
  RefId ref = kNoRef;
  std::uint64_t ends = 0;  // tick
  std::size_t exports = 0;
};

struct Planted {
  enum class Kind { kRing, kRacedRing, kFig4 } kind = Kind::kRing;
  int window = -1;
  SimTime due_drop = 0;
  bool dropped = false;
  std::vector<ObjectId> objs;
  ObjectId anchor{kNoProcess, kNoObject};
  ObjectId touch_from{kNoProcess, kNoObject};
  RefId touch_ref = kNoRef;
};

struct WindowStats {
  Samples reclaim_ms, gen_late_ms;
  Slicer slicer{0, 0};
  double planted = 0;
  Metrics start, end;
  double wall_s = 0, cpu_s = 0, sim_s = 0;
  double heap0 = 0, stubs0 = 0, scions0 = 0, heap1 = 0, stubs1 = 0, scions1 = 0;
};

class MixedSim {
 public:
  explicit MixedSim(const Options& o) : opts_(o), rng_(o.seed), spans_(o.trace), probe_(spans_) {}
  RunResult run();

 private:
  double setup_once(std::uint64_t seed);
  /// One tick: mutator steps, plants, drops, reclaim checks, clock advance.
  void tick(int index, bool loading);
  void plant(int index);
  void mutate(int index);
  void check_safety();
  void end_session(const Session& s);
  void window(int index, double seconds, bool traced);
  /// Ends the load, runs until converged, and checks safety and completeness.
  void drain_and_check();
  void tables(double* heap, double* stubs, double* scions) const;
  E2e e2e_of(const WindowStats& w) const;

  Options opts_;
  std::mt19937_64 rng_;
  SpanLog spans_;
  LayerProbe probe_;
  std::unique_ptr<Runtime> rt_;
  sim::ShadowGraph shadow_;
  std::vector<Session> sessions_;
  std::vector<ObjectSeq> sentinels_;
  std::vector<Planted> pending_;
  std::vector<WindowStats> windows_;
  std::uint64_t ticks_ = 0;
  std::uint64_t measured_objs_ = 0;
  RunResult res_;
};

double MixedSim::setup_once(std::uint64_t seed) {
  pending_.clear();
  sessions_.clear();
  shadow_ = sim::ShadowGraph();
  rt_.reset();  // the previous simulation's teardown is not set-up time
  const double t0 = now_s();
  RuntimeConfig cfg;
  cfg.seed = seed;
  // FIFO links, as over TCP. With reordering links an invocation can confirm
  // a fresh scion ahead of an older in-flight NewSetStubs that predates the
  // reference, which then deletes it while it is still held.
  cfg.net.fifo_links = true;
  rt_ = std::make_unique<Runtime>(kProcs, cfg);
  sentinels_.clear();
  for (ProcessId p = 0; p < kProcs; ++p) {
    sentinels_.push_back(rt_->proc(p).create_object());
    rt_->proc(p).add_root(sentinels_.back());
    shadow_.add_object(ObjectId{p, sentinels_.back()});
    shadow_.add_root(ObjectId{p, sentinels_.back()});
  }
  ticks_ = 0;
  while (rt_->now() < kSetupWarmupUs) tick(-1, true);
  return now_s() - t0;
}

void MixedSim::plant(int index) {
  Planted pl;
  pl.window = index;
  const std::uint64_t roll = rng_() % 4;
  if (roll == 3) {
    pl.kind = Planted::Kind::kFig4;
    const sim::Fig4 f = sim::build_fig4(*rt_);
    pl.objs = {f.D, f.F, f.K, f.T, f.V, f.Y, f.ZB, f.ZD};
    pl.due_drop = rt_->now();  // unrooted from the start
    pl.dropped = true;
  } else {
    pl.kind = roll == 2 ? Planted::Kind::kRacedRing : Planted::Kind::kRing;
    std::array<ProcessId, kProcs> procs{};
    for (std::size_t i = 0; i < kProcs; ++i) procs[i] = static_cast<ProcessId>(i);
    std::shuffle(procs.begin(), procs.end(), rng_);
    std::vector<ObjectId> heads, tails;
    for (std::size_t pos = 0; pos < kRingProcs; ++pos) {
      Process& p = rt_->proc(procs[pos]);
      ObjectId prev{procs[pos], p.create_object()};
      heads.push_back(prev);
      pl.objs.push_back(prev);
      for (std::size_t k = 1; k < kRingObjsPerProc; ++k) {
        const ObjectId o{procs[pos], p.create_object()};
        p.add_local_ref(prev.seq, o.seq);
        pl.objs.push_back(o);
        prev = o;
      }
      tails.push_back(prev);
    }
    for (std::size_t pos = 0; pos < kRingProcs; ++pos) {
      const RefId ref = rt_->link(tails[pos], heads[(pos + 1) % kRingProcs]);
      if (pos == 0) {
        pl.touch_from = tails[0];
        pl.touch_ref = ref;
      }
    }
    Process& a = rt_->proc(procs[0]);
    pl.anchor = ObjectId{procs[0], a.create_object()};
    a.add_local_ref(pl.anchor.seq, heads[0].seq);
    a.add_root(pl.anchor.seq);
    pl.objs.push_back(pl.anchor);
    pl.due_drop = rt_->now() + kDropDelayUs;
  }
  if (index >= 0) {
    windows_[index].planted += 1;
    measured_objs_ += pl.objs.size();
  }
  pending_.push_back(std::move(pl));
}

void MixedSim::check_safety() {
  for (const ObjectId& id : shadow_.live()) {
    if (!rt_->proc(id.owner).heap().exists(id.seq)) {
      res_.violation("mixed_sim: shadow-live object reclaimed (P" + std::to_string(id.owner) +
                     ")");
    }
  }
}

void MixedSim::end_session(const Session& s) {
  rt_->proc(s.h.owner).remove_root(s.h.seq);
  shadow_.remove_root(s.h);
}

void MixedSim::mutate(int index) {
  if (ticks_ % kSessionEveryTicks == 0) {
    Session s;
    const auto p = static_cast<ProcessId>(rng_() % kProcs);
    const auto q = static_cast<ProcessId>((p + 1 + rng_() % (kProcs - 1)) % kProcs);
    s.h = ObjectId{p, rt_->proc(p).create_object()};
    s.t = ObjectId{q, rt_->proc(q).create_object()};
    rt_->proc(p).add_root(s.h.seq);
    s.ref = rt_->link(s.h, s.t);
    shadow_.add_object(s.h);
    shadow_.add_object(s.t);
    shadow_.add_root(s.h);
    shadow_.add_edge(s.h, s.t);
    s.ends = ticks_ + kSessionTicks;
    sessions_.push_back(s);
    if (index >= 0) measured_objs_ += 2;
  }
  std::uniform_real_distribution<double> u(0, 1);
  for (Session& s : sessions_) {
    if (u(rng_) >= kSessionOpChance) continue;
    Process& p = rt_->proc(s.h.owner);
    if (s.exports >= kSessionMaxExports || u(rng_) < 0.5) {
      p.invoke(s.h.seq, s.ref, InvokeEffect::kTouch);
      continue;
    }
    // Export a fresh X into T; X points back at H. Until the invocation
    // lands, X's pending scion keeps it; the shadow records the edge now.
    const ObjectId x{s.h.owner, p.create_object()};
    p.add_local_ref(x.seq, s.h.seq);
    shadow_.add_object(x);
    shadow_.add_edge(x, s.h);
    shadow_.add_edge(s.t, x);
    p.invoke(s.h.seq, s.ref, InvokeEffect::kStoreArgs, {ArgRef::own(x.seq)});
    ++s.exports;
    if (index >= 0) ++measured_objs_;
  }
  std::erase_if(sessions_, [&](const Session& s) {
    if (s.ends > ticks_) return false;
    end_session(s);
    return true;
  });
}

void MixedSim::tick(int index, bool loading) {
  WindowStats* w = index >= 0 ? &windows_[index] : nullptr;
  if (loading) {
    mutate(index);
    if (ticks_ % kPlantTicks == 0) plant(index);
    if (ticks_ % kSafetyEveryTicks == 0) check_safety();
  }
  const SimTime now = rt_->now();
  for (Planted& pl : pending_) {
    if (pl.dropped || (loading && now < pl.due_drop)) continue;
    // The structure is live until its root drops: all of it must exist.
    for (const ObjectId& o : pl.objs) {
      if (!rt_->proc(o.owner).heap().exists(o.seq)) {
        res_.violation("mixed_sim: planted object reclaimed before its root dropped");
      }
    }
    if (pl.kind == Planted::Kind::kRacedRing) {
      rt_->proc(pl.touch_from.owner).invoke(pl.touch_from.seq, pl.touch_ref, InvokeEffect::kTouch);
    }
    rt_->proc(pl.anchor.owner).remove_root(pl.anchor.seq);
    if (w && pl.window >= 0) w->gen_late_ms.add(static_cast<double>(now - pl.due_drop) / 1000.0);
    if (!loading) pl.due_drop = std::min(pl.due_drop, now);
    pl.dropped = true;
  }
  // Reclaim is checked kReclaimChecksPerTick times per tick, so its
  // resolution is finer than the mutator's schedule.
  for (std::size_t i = 0; i < kReclaimChecksPerTick; ++i) {
    rt_->run_for(kTickUs / kReclaimChecksPerTick);
    const SimTime after = rt_->now();
    std::erase_if(pending_, [&](const Planted& pl) {
      if (!pl.dropped) return false;
      for (const ObjectId& o : pl.objs) {
        if (rt_->proc(o.owner).heap().exists(o.seq)) return false;
      }
      if (pl.window >= 0) {
        windows_[pl.window].reclaim_ms.add(static_cast<double>(after - pl.due_drop) / 1000.0);
      }
      return true;
    });
  }
  ++ticks_;
}

void MixedSim::tables(double* heap, double* stubs, double* scions) const {
  *heap = *stubs = *scions = 0;
  for (ProcessId p = 0; p < kProcs; ++p) {
    *heap += static_cast<double>(rt_->proc(p).heap().size());
    *stubs += static_cast<double>(rt_->proc(p).stubs().size());
    *scions += static_cast<double>(rt_->proc(p).scions().size());
  }
}

void MixedSim::window(int index, double seconds, bool traced) {
  WindowStats& w = windows_[index];
  tables(&w.heap0, &w.stubs0, &w.scions0);
  w.start = rt_->total_metrics();
  // The simulator has no frame headers: wire size is the encoded message.
  w.slicer = Slicer(static_cast<double>(encode_message(InvokeMsg{}).size()),
                    static_cast<double>(encode_message(ReplyMsg{}).size()));
  w.slicer.mark(w.start, 0, 0);
  const SimTime sim0 = rt_->now();
  const double cpu0 = process_cpu_s();
  double probe_wall = 0;
  const double t0 = now_s();
  double next_sample = t0;
  const std::uint64_t window_span = spans_.begin(traced ? "window.traced" : "window", 0, "bench");
  while (now_s() - probe_wall < t0 + seconds) {
    tick(index, true);
    if (w.slicer.due()) {
      const Metrics m = rt_->total_metrics();
      w.slicer.mark(m, w.planted, delta(m.replies_received, w.start.replies_received));
    }
    if (traced && now_s() >= next_sample) {
      const double p0 = now_s();
      const std::uint64_t sp = spans_.begin("probe.capture", window_span, "bench");
      std::vector<NodeState> states;
      for (ProcessId p = 0; p < kProcs; ++p) states.push_back(capture_state(rt_->proc(p)));
      InvokeMsg touch;
      touch.call_id = 1;
      probe_.sample_invoke(touch, sp);
      probe_.sample(std::move(states), sp);
      spans_.end(sp);
      // The simulation stands still while the probe runs: keep the window's
      // simulated work comparable to an untraced one.
      probe_wall += now_s() - p0;
      next_sample = now_s() + kSampleIntervalS;
    }
  }
  w.wall_s = now_s() - t0;
  w.cpu_s = process_cpu_s() - cpu0;
  w.sim_s = static_cast<double>(rt_->now() - sim0) / 1e6;
  w.end = rt_->total_metrics();
  w.slicer.mark(w.end, w.planted, delta(w.end.replies_received, w.start.replies_received));
  tables(&w.heap1, &w.stubs1, &w.scions1);
  spans_.end(window_span);
}

E2e MixedSim::e2e_of(const WindowStats& w) const {
  E2e e;
  w.slicer.fill(e);
  e.reclaim_p50_ms = w.reclaim_ms.quantile(0.5);
  e.reclaim_tail_ms = w.reclaim_ms.quantile(0.9);
  return e;
}

void MixedSim::drain_and_check() {
  // Every session ends and every planted root drops; run until the heaps
  // hold exactly the shadow-live objects (the sentinels).
  for (const Session& s : sessions_) end_session(s);
  sessions_.clear();
  const double expected = static_cast<double>(shadow_.live().size());
  const SimTime sim_deadline = rt_->now() + kDrainSimUs;
  const double wall_deadline = now_s() + kDrainWallS;
  double total = 0;
  for (;;) {
    double stubs = 0, scions = 0;
    tables(&total, &stubs, &scions);
    if (total <= expected && pending_.empty()) break;
    if (rt_->now() > sim_deadline || now_s() > wall_deadline) break;
    for (int i = 0; i < 50; ++i) tick(-1, false);
  }
  for (ProcessId p = 0; p < kProcs; ++p) {
    if (!rt_->proc(p).heap().exists(sentinels_[p])) {
      res_.violation("mixed_sim: sentinel lost on P" + std::to_string(p));
    }
  }
  check_safety();
  if (total > expected) {
    const auto left = static_cast<std::uint64_t>(total - expected);
    res_.violation("mixed_sim: not converged, garbage left: " + std::to_string(left) + " objects",
                   left);
  }
}

RunResult MixedSim::run() {
  pin_current_thread(0);  // one thread: keep it on one CPU from run to run
  // The seed fixes the phase of every process's collector timers for a whole
  // simulation, and reclaim latency depends on those phases: the untraced
  // window is kSegments fresh simulations, and each metric is the median
  // over them.
  const double plain_s = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
  windows_.resize(kSegments + (opts_.trace ? 1 : 0));
  Samples setup;
  std::vector<MetricMap> segments;
  double worst_drift = 0;
  const auto steady_drift = [](const WindowStats& w) {
    const double slack = 1500;
    return std::max({drift(w.heap0, w.heap1, slack), drift(w.stubs0, w.stubs1, slack),
                     drift(w.scions0, w.scions1, slack)});
  };
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    setup.add(setup_once(opts_.seed * 16 + i));
    const bool traced = i == kSegments;
    window(static_cast<int>(i), traced ? opts_.seconds / 2 : plain_s / kSegments, traced);
    drain_and_check();
    worst_drift = std::max(worst_drift, steady_drift(windows_[i]));
    if (!traced) {
      segments.emplace_back();
      fill_e2e(e2e_of(windows_[i]), 0, segments.back());
    }
  }
  MetricMap plain_e2e;
  for (const auto& [name, m] : segments.front()) {
    Samples v;
    for (const MetricMap& seg : segments) v.add(seg.at(name).value);
    plain_e2e[name] = {v.median(), m.unit};
  }
  plain_e2e["setup_s"].value = setup.median();

  if (opts_.trace) {
    const WindowStats& tw = windows_[kSegments];
    MetricMap traced_e2e;
    fill_e2e(e2e_of(tw), setup.median(), traced_e2e);
    worst_drift = std::max(worst_drift, steady_drift(tw));
    LayerContext c;
    c.start = tw.start;
    c.end = tw.end;
    c.wall_s = tw.wall_s;
    c.cpu_s = tw.cpu_s;
    c.ops = tw.planted;
    c.tcp = false;
    c.heap_objects = tw.heap1;
    c.stubs = tw.stubs1;
    c.scions = tw.scions1;
    c.steady_drift = worst_drift;
    c.gen_late_ms = tw.gen_late_ms;
    c.rmi_samples = static_cast<double>(hist_delta_count(tw.end.rmi_rtt_us, tw.start.rmi_rtt_us));
    c.reclaim_samples = static_cast<double>(tw.reclaim_ms.size());
    fill_layer_metrics(probe_, c, res_.layers);
    fill_trace_overhead(plain_e2e, traced_e2e, res_.layers);
  }
  res_.e2e = plain_e2e;
  for (std::size_t i = 0; i < kSegments; ++i) {
    const WindowStats& w = windows_[i];
    res_.notes.push_back("mixed_sim segment " + std::to_string(i) +
                         ": structures=" + std::to_string(w.reclaim_ms.size()) +
                         " sim_s=" + std::to_string(w.sim_s) +
                         " sim_s_per_wall_s=" + std::to_string(w.sim_s / w.wall_s));
  }
  res_.notes.push_back("mixed_sim: steady_drift=" + std::to_string(worst_drift));
  if (worst_drift > 0.25) {
    res_.violation("mixed_sim: not steady (table drift " + std::to_string(worst_drift) + ")");
  }
  res_.attempted = measured_objs_;
  if (opts_.trace) {
    spans_.write(opts_.out_dir + "/mixed_sim-seed" + std::to_string(opts_.seed) + ".trace.json");
  }
  return res_;
}

}  // namespace

RunResult run_mixed_sim(const Options& opts) { return MixedSim(opts).run(); }

}  // namespace perfbench
