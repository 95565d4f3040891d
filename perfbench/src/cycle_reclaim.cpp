// cycle_reclaim — the paper's DCDA claim: distributed garbage cycles are
// reclaimed asynchronously, without stopping anyone.
//
// Runtime: three NodeRuntimes over loopback TCP, default collector periods,
// each with a state directory (as `adgc_node --state-dir`), so every snapshot
// is persisted as well as summarized.
// Setup: each node holds kQuietChains rooted chains, about kQuietObjects
// quiet local objects, and only kCrossRefsPerPeer references into each other
// node, so NewSetStubs stays small and the snapshot, DCDA and mark-sweep
// work dominates.
// Load: open loop on a fixed schedule, no RMIs besides a light probe. Every
// kPlantPeriodS the generator plants one 3-node garbage ring (the
// ClusterPlant / build_ring shape: a chain of kRingObjsPerNode objects per
// node, tail to the next node's head, pinned by a rooted anchor) and drops
// the anchor's root kDropDelayS later. A kTouch probe RMI every
// 1/kProbeRate seconds from node 0 to node 1 measures what an application
// call waits for while the collectors work, as node 0 measures the round trip.
// Reclaim: a ring's latency runs from when its drop was due until every one
// of its objects has left every heap, observed by polling each node every
// kPollS.
// The generator never blocks on a node during the window: plants, drops,
// probes and polls are posted asynchronously and report back.
#include <array>
#include <atomic>
#include <deque>
#include <random>
#include <stdexcept>

#include "perfbench/src/tcp_cluster.h"
#include "perfbench/src/workloads.h"
#include "src/net/frame.h"

namespace perfbench {

using namespace adgc;

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kQuietChains = 2'000;
constexpr std::size_t kQuietObjects = 20'000;  // per node, kQuietChains chains
constexpr std::size_t kCrossRefsPerPeer = 8;
constexpr std::size_t kRingObjsPerNode = 3;
constexpr double kPlantPeriodS = 0.04;
constexpr double kDropDelayS = 0.1;
constexpr double kProbeRate = 1000;
constexpr double kPollS = 0.002;
constexpr double kProbeTimeoutS = 5.0;
constexpr int kSetupReps = 15;
constexpr double kWarmupS = 1.0;
constexpr double kDrainTimeoutS = 30.0;
constexpr double kSampleIntervalS = 0.25;
constexpr double kActorWaitIntervalS = 0.01;

struct Ring {
  int window = -1;
  double due_drop = 0;
  std::array<ProcessId, kNodes> order{};  // position i's tail -> position i+1's head
  std::array<std::vector<ObjectSeq>, kNodes> objs;  // written by the owning node
  std::array<ExportedRef, kNodes> head_ref;         // position i's head, held by i-1
  ObjectSeq anchor = kNoObject;                     // at position 0
  std::atomic<int> exported{0};
  bool installed = false;
  bool dropped = false;
  bool reclaimed = false;
  std::array<double, kNodes> gone_t{-1, -1, -1};  // guarded by Shared::mu
  std::uint64_t span_parent = 0;
};

/// What node closures report back to the generator.
struct Shared {
  std::mutex mu;
  std::vector<std::string> violations;
};

struct WindowStats {
  Samples rmi_us, reclaim_ms, gen_late_ms;
  Slicer slicer{0, 0};
  double probes_done = 0, rings = 0;
  Metrics start, end;
  double wall_s = 0, cpu_s = 0;
  Cluster::Tables t_start, t_end;
};

class CycleReclaim {
 public:
  explicit CycleReclaim(const Options& o)
      : opts_(o), rng_(o.seed), spans_(o.trace), probe_(spans_) {}
  RunResult run();

 private:
  double setup_once(std::uint64_t cluster_seed);
  void window(int index, double seconds, bool traced, ProbeWorker* worker);
  /// Advances every ring and probe call that is due; returns true if it acted.
  bool service(double now, bool planting, int index);
  void plant(double due, int index);
  void poll();
  void drain();
  E2e e2e_of(const WindowStats& w) const;

  Options opts_;
  std::mt19937_64 rng_;
  SpanLog spans_;
  LayerProbe probe_;
  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
  std::vector<ObjectSeq> sentinels_;
  std::vector<std::size_t> baseline_;  // heap objects per node with no rings
  ObjectSeq probe_caller_ = kNoObject;
  RefId probe_ref_ = kNoRef;
  std::deque<std::shared_ptr<Ring>> rings_;  // planted, not yet reclaimed
  std::vector<WindowStats> windows_;
  std::deque<std::pair<double, int>> probes_;  // outstanding probe calls: due, window
  std::uint64_t probe_replies_ = 0;
  double next_probe_ = 0, next_plant_ = 0, next_poll_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t measured_probes_ = 0, measured_rings_ = 0;
  RunResult res_;
};

double CycleReclaim::setup_once(std::uint64_t cluster_seed) {
  cluster_.reset();  // the previous repetition's teardown is not set-up time
  const double t0 = now_s();
  sentinels_.assign(kNodes, kNoObject);
  baseline_.assign(kNodes, 0);
  cluster_ = std::make_unique<Cluster>(kNodes, cluster_seed, opts_.out_dir + "/state-cycle_reclaim",
                                       std::vector<int>{0, 1, 2}, 3);

  // Quiet heaps: rooted chains of seeded lengths, kQuietObjects per node.
  std::vector<std::vector<ExportedRef>> exported(kNodes * kNodes);  // [owner*kNodes+holder]
  ExportedRef probe_target;
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::vector<std::size_t> lengths(kQuietChains, kQuietObjects / kQuietChains);
    for (std::size_t i = 0; i < kQuietChains; ++i) {  // move length around, keep the total
      const std::size_t a = rng_() % kQuietChains, b = rng_() % kQuietChains;
      if (lengths[a] > 1) --lengths[a], ++lengths[b];
    }
    cluster_->node(n).post_sync([&](Process& p) {
      std::vector<ObjectSeq> heads;
      for (std::size_t len : lengths) {
        ObjectSeq prev = p.create_object();
        p.add_root(prev);
        heads.push_back(prev);
        for (std::size_t k = 1; k < len; ++k) {
          const ObjectSeq o = p.create_object();
          p.add_local_ref(prev, o);
          prev = o;
        }
      }
      for (std::size_t h = 0; h < kNodes; ++h) {
        if (h == n) continue;
        for (std::size_t k = 0; k < kCrossRefsPerPeer; ++k) {
          exported[n * kNodes + h].push_back(
              p.export_own_object(heads[rng_() % heads.size()], static_cast<ProcessId>(h)));
        }
      }
      if (n == 1) probe_target = p.export_own_object(heads[0], 0);
      sentinels_[n] = p.create_object();
      p.add_root(sentinels_[n]);
    });
  }
  for (std::size_t n = 0; n < kNodes; ++n) {
    cluster_->node(n).post_sync([&](Process& p) {
      const ObjectSeq holder = p.create_object();
      p.add_root(holder);
      for (std::size_t o = 0; o < kNodes; ++o) {
        for (const ExportedRef& er : exported[o * kNodes + n]) p.install_ref(holder, er);
      }
      if (n == 0) {
        probe_caller_ = p.create_object();
        p.add_root(probe_caller_);
        probe_ref_ = p.install_ref(probe_caller_, probe_target);
      }
      baseline_[n] = p.heap().size();
    });
  }
  // Announce the references now instead of at each node's next periodic LGC.
  for (std::size_t n = 0; n < kNodes; ++n) cluster_->node(n).post_sync([](Process& p) { p.run_lgc(); });
  // Ready once every node's scions are confirmed by their holders.
  const double deadline = now_s() + 10.0;
  for (;;) {
    bool all = true;
    for (std::size_t n = 0; n < kNodes; ++n) {
      cluster_->node(n).post_sync([&](Process& p) {
        for (const auto& [ref, s] : p.scions()) all = all && s.confirmed;
      });
    }
    if (all) break;
    if (now_s() > deadline) throw std::runtime_error("cycle_reclaim: cross references never confirmed");
    fine_sleep_us(200);
  }
  probe_replies_ = cluster_->proc_metrics(0).replies_received.get();
  return now_s() - t0;
}

void CycleReclaim::plant(double due, int index) {
  auto ring = std::make_shared<Ring>();
  ring->window = index;
  ring->due_drop = due + kDropDelayS;
  ring->order = {0, 1, 2};
  std::shuffle(ring->order.begin(), ring->order.end(), rng_);
  if (spans_.enabled() && index >= 0) {
    ring->span_parent = spans_.begin("ring", 0, "ring");
  }
  if (index >= 0) windows_[index].rings += 1;
  for (std::size_t pos = 0; pos < kNodes; ++pos) {
    const ProcessId holder = ring->order[(pos + kNodes - 1) % kNodes];
    cluster_->node(ring->order[pos]).post([ring, pos, holder](Process& p) {
      std::vector<ObjectSeq>& objs = ring->objs[pos];
      for (std::size_t k = 0; k < kRingObjsPerNode; ++k) {
        objs.push_back(p.create_object());
        if (k > 0) p.add_local_ref(objs[k - 1], objs[k]);
      }
      ring->head_ref[pos] = p.export_own_object(objs.front(), holder);
      if (pos == 0) {
        ring->anchor = p.create_object();
        p.add_local_ref(ring->anchor, objs.front());
        p.add_root(ring->anchor);
      }
      ring->exported.fetch_add(1, std::memory_order_release);
    });
  }
  rings_.push_back(std::move(ring));
}

void CycleReclaim::poll() {
  std::vector<std::shared_ptr<Ring>> watch;
  for (const auto& r : rings_) {
    if (r->dropped && !r->reclaimed) watch.push_back(r);
  }
  if (watch.empty()) return;
  for (std::size_t n = 0; n < kNodes; ++n) {
    cluster_->node(n).post([watch, n, sh = shared_](Process& p) {
      const double t = now_s();
      std::lock_guard<std::mutex> lk(sh->mu);
      for (const auto& r : watch) {
        for (std::size_t pos = 0; pos < kNodes; ++pos) {
          if (r->order[pos] != n || r->gone_t[pos] >= 0) continue;
          bool gone = true;
          for (ObjectSeq s : r->objs[pos]) gone = gone && !p.heap().exists(s);
          if (pos == 0) gone = gone && !p.heap().exists(r->anchor);
          if (gone) r->gone_t[pos] = t;
        }
      }
    });
  }
}

bool CycleReclaim::service(double now, bool planting, int index) {
  bool acted = false;
  WindowStats* w = index >= 0 ? &windows_[index] : nullptr;

  // Probe replies arrive in issue order (one connection, one actor).
  const std::uint64_t r = cluster_->proc_metrics(0).replies_received.get();
  while (probe_replies_ < r && !probes_.empty()) {
    ++probe_replies_;
    const auto [due, win] = probes_.front();
    probes_.pop_front();
    if (win >= 0) {
      windows_[win].rmi_us.add((now - due) * 1e6);
      windows_[win].probes_done += 1;
    }
    acted = true;
  }
  if (!probes_.empty() && now - probes_.front().first > kProbeTimeoutS) {
    ++timed_out_;
    probes_.pop_front();
  }
  if (planting) {
    while (now >= next_probe_) {
      if (w) w->gen_late_ms.add((now - next_probe_) * 1e3);
      const ObjectSeq caller = probe_caller_;
      const RefId ref = probe_ref_;
      cluster_->node(0).post(
          [caller, ref](Process& p) { p.invoke(caller, ref, InvokeEffect::kTouch); });
      probes_.emplace_back(next_probe_, index);
      if (index >= 0) ++measured_probes_;
      next_probe_ += 1.0 / kProbeRate;
      acted = true;
    }
    while (now >= next_plant_) {
      if (w) w->gen_late_ms.add((now - next_plant_) * 1e3);
      plant(next_plant_, index);
      if (index >= 0) ++measured_rings_;
      next_plant_ += kPlantPeriodS;
      acted = true;
    }
  }

  for (const auto& ring : rings_) {
    if (!ring->installed && ring->exported.load(std::memory_order_acquire) == kNodes) {
      for (std::size_t pos = 0; pos < kNodes; ++pos) {
        const ExportedRef next = ring->head_ref[(pos + 1) % kNodes];
        cluster_->node(ring->order[pos]).post([ring, pos, next](Process& p) {
          p.install_ref(ring->objs[pos].back(), next);
        });
      }
      ring->installed = true;
      acted = true;
    }
    const bool due = now >= ring->due_drop || !planting;
    if (ring->installed && !ring->dropped && due) {
      if (planting && ring->window >= 0) {
        windows_[ring->window].gen_late_ms.add((now - ring->due_drop) * 1e3);
      }
      if (!planting) ring->due_drop = std::min(ring->due_drop, now);
      // Safety: the ring is live until the drop runs; every object must exist.
      for (std::size_t pos = 0; pos < kNodes; ++pos) {
        cluster_->node(ring->order[pos]).post([ring, pos, sh = shared_](Process& p) {
          for (ObjectSeq s : ring->objs[pos]) {
            if (p.heap().exists(s)) continue;
            std::lock_guard<std::mutex> lk(sh->mu);
            sh->violations.push_back("live ring object reclaimed before its root dropped");
          }
          if (pos == 0) p.remove_root(ring->anchor);
        });
      }
      ring->dropped = true;
      acted = true;
    }
  }

  if (now >= next_poll_) {
    if (w) w->gen_late_ms.add((now - next_poll_) * 1e3);
    poll();
    next_poll_ = std::max(next_poll_ + kPollS, now);
    acted = true;
  }
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    for (const auto& ring : rings_) {
      if (ring->reclaimed || !ring->dropped) continue;
      double last = 0;
      bool all = true;
      for (double g : ring->gone_t) {
        all = all && g >= 0;
        last = std::max(last, g);
      }
      if (!all) continue;
      ring->reclaimed = true;
      if (ring->window >= 0) {
        windows_[ring->window].reclaim_ms.add((last - ring->due_drop) * 1e3);
        if (ring->span_parent) spans_.end(ring->span_parent);
      }
    }
  }
  while (!rings_.empty() && rings_.front()->reclaimed) rings_.pop_front();
  return acted;
}

void CycleReclaim::window(int index, double seconds, bool traced, ProbeWorker* worker) {
  WindowStats& w = windows_[index];
  w.t_start = cluster_->tables();
  w.start = cluster_->totals();
  w.slicer = Slicer(wire_bytes(InvokeMsg{}), wire_bytes(ReplyMsg{}));
  w.slicer.mark(w.start, 0, 0);
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  double next_wait = t0 + kActorWaitIntervalS;
  double next_sample = t0;
  std::size_t wait_node = 0;
  auto wait_mu = std::make_shared<std::mutex>();
  auto waits = std::make_shared<Samples>();
  const std::uint64_t window_span = spans_.begin(traced ? "window.traced" : "window", 0, "bench");
  for (;;) {
    const double now = now_s();
    if (now >= t_end) break;
    bool acted = service(now, true, index);
    if (w.slicer.due()) w.slicer.mark(cluster_->totals(), w.rings, w.probes_done);
    if (traced && now >= next_wait) {
      cluster_->sample_actor_wait(wait_node, wait_mu, waits);
      wait_node = (wait_node + 1) % kNodes;
      next_wait = std::max(next_wait + kActorWaitIntervalS, now);
    }
    if (traced && worker && now >= next_sample) {
      InvokeMsg touch;
      touch.ref = probe_ref_;
      touch.target = ObjectId{1, 1};
      touch.caller = ObjectId{0, probe_caller_};
      touch.call_id = 1;
      worker->offer([this](std::uint64_t sp) { return cluster_->capture_all(spans_, sp); }, touch,
                    window_span);
      next_sample = std::max(next_sample + kSampleIntervalS, now);
    }
    if (!acted) fine_sleep_us(20);
  }
  w.wall_s = now_s() - t0;
  w.cpu_s = process_cpu_s() - cpu0;
  w.end = cluster_->totals();
  w.slicer.mark(w.end, w.rings, w.probes_done);
  w.t_end = cluster_->tables();  // also flushes the posted actor-wait probes
  {
    std::lock_guard<std::mutex> lk(*wait_mu);
    for (double v : waits->values()) probe_.actor_wait_us.add(v);
  }
  spans_.end(window_span);
}

void CycleReclaim::drain() {
  const double deadline = now_s() + kDrainTimeoutS;
  while (!rings_.empty() || !probes_.empty()) {
    const double now = now_s();
    if (now > deadline) break;
    if (!service(now, false, -1)) fine_sleep_us(200);
  }
  const std::size_t left = rings_.size();
  if (left > 0) {
    res_.violation("cycle_reclaim: garbage rings left after drain: " + std::to_string(left),
                   left * (kNodes * kRingObjsPerNode + 1));
  }
  if (!probes_.empty()) timed_out_ += probes_.size();
}

E2e CycleReclaim::e2e_of(const WindowStats& w) const {
  E2e e;
  w.slicer.fill(e);
  e.reclaim_p50_ms = w.reclaim_ms.quantile(0.5);
  e.reclaim_tail_ms = w.reclaim_ms.quantile(0.9);
  return e;
}

RunResult CycleReclaim::run() {
  set_fine_timer_slack();
  Samples setup;
  for (int i = 0; i < kSetupReps; ++i) setup.add(setup_once(opts_.seed * 16 + i));

  const double t0 = now_s();
  next_probe_ = next_plant_ = next_poll_ = t0;
  // Warm-up: the first rings go through every stage before measuring.
  while (now_s() < t0 + kWarmupS) {
    if (!service(now_s(), true, -1)) fine_sleep_us(20);
  }

  const double half = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
  windows_.resize(opts_.trace ? 2 : 1);
  window(0, half, false, nullptr);
  if (opts_.trace) {
    ProbeWorker worker(probe_, /*core=*/3);  // shares the generator's CPU
    window(1, half, true, &worker);
    worker.drain();
  }
  drain();

  MetricMap plain_e2e;
  fill_e2e(e2e_of(windows_[0]), setup.median(), plain_e2e);
  const auto steady_drift = [](const WindowStats& w) {
    const double slack = 500;
    return std::max({drift(w.t_start.heap, w.t_end.heap, slack),
                     drift(w.t_start.stubs, w.t_end.stubs, slack),
                     drift(w.t_start.scions, w.t_end.scions, slack)});
  };
  double worst_drift = steady_drift(windows_[0]);
  if (opts_.trace) {
    const WindowStats& tw = windows_[1];
    MetricMap traced_e2e;
    fill_e2e(e2e_of(tw), setup.median(), traced_e2e);
    worst_drift = std::max(worst_drift, steady_drift(tw));
    LayerContext c;
    c.start = tw.start;
    c.end = tw.end;
    c.wall_s = tw.wall_s;
    c.cpu_s = tw.cpu_s;
    c.ops = tw.rings;
    c.heap_objects = tw.t_end.heap;
    c.stubs = tw.t_end.stubs;
    c.scions = tw.t_end.scions;
    c.steady_drift = worst_drift;
    c.gen_late_ms = tw.gen_late_ms;
    c.rmi_samples = static_cast<double>(tw.rmi_us.size());
    c.reclaim_samples = static_cast<double>(tw.reclaim_ms.size());
    fill_layer_metrics(probe_, c, res_.layers);
    fill_trace_overhead(plain_e2e, traced_e2e, res_.layers);
  }
  res_.e2e = plain_e2e;
  res_.notes.push_back("cycle_reclaim: rings=" + std::to_string(windows_[0].reclaim_ms.size()) +
                       " probe samples=" + std::to_string(windows_[0].rmi_us.size()) +
                       " steady_drift=" + std::to_string(worst_drift));
  if (worst_drift > 0.25) {
    res_.violation("cycle_reclaim: not steady (table drift " + std::to_string(worst_drift) + ")");
  }
  res_.attempted = measured_probes_ + measured_rings_ * (kNodes * kRingObjsPerNode + 1);
  if (timed_out_ > 0) res_.violation("cycle_reclaim: probe RMIs without reply", timed_out_);

  // Safety: sentinels and quiet heaps intact; completeness: only the
  // baseline is left once every ring is gone.
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::size_t heap = 0;
    bool sentinel = false;
    cluster_->node(n).post_sync([&](Process& p) {
      heap = p.heap().size();
      sentinel = p.heap().exists(sentinels_[n]);
    });
    if (!sentinel) res_.violation("cycle_reclaim: sentinel lost on node " + std::to_string(n));
    if (heap < baseline_[n]) {
      res_.violation("cycle_reclaim: rooted objects lost on node " + std::to_string(n),
                     baseline_[n] - heap);
    } else if (heap > baseline_[n] && rings_.empty()) {
      res_.violation("cycle_reclaim: garbage left on node " + std::to_string(n),
                     heap - baseline_[n]);
    }
  }
  {
    std::lock_guard<std::mutex> lk(shared_->mu);
    for (const std::string& v : shared_->violations) res_.violation(v);
  }
  if (opts_.trace) {
    spans_.write(opts_.out_dir + "/cycle_reclaim-seed" + std::to_string(opts_.seed) +
                 ".trace.json");
  }
  cluster_->stop();
  return res_;
}

}  // namespace

RunResult run_cycle_reclaim(const Options& opts) { return CycleReclaim(opts).run(); }

}  // namespace perfbench
