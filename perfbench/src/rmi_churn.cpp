// rmi_churn — the paper's Table 1 question under steady load: what does the
// DGC add to RMI, and how fast does acyclic garbage go?
//
// Runtime: two NodeRuntimes (client P0, server P1) over loopback TCP, default
// collector periods.
// Setup: the client holds a standing table of kStandingRefs references into
// rooted server objects (the long-lived references of a cache or registry),
// so every client LGC rebuilds and ships a full-state NewSetStubs of that
// size and the server applies it.
// Load: kCallers callers, each with one synchronous RMI outstanding at most,
// multiplexed on the generator thread and paced to kCallsPerSecond in all —
// about a third of what the pair sustains when saturated. Saturated, every
// number followed the CPU the shared machine happened to leave us; paced,
// a call waits only for the collectors. A caller whose reply is late issues
// its next call as soon as the reply lands. Each call is kStoreArgs with
// kExportsPerCall fresh client exports and a kPayloadBytes payload, stored in
// the caller's sink object at the server. The client un-roots the exports
// when the reply lands; the server releases the references stored
// kReleaseLag calls earlier. Allocation is matched by release, so the live
// set holds steady and no number depends on run length.
// Reclaim: one export per call is tracked; its latency runs from the server
// releasing the last reference to the object leaving the client heap,
// observed by polling every kReclaimPollS.
// The generator never blocks on a node while measuring: calls, releases and
// polls are posted, and replies are matched to calls by order (one
// connection, one actor each way, so replies arrive in issue order).
#include <algorithm>
#include <atomic>
#include <deque>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/src/tcp_cluster.h"
#include "perfbench/src/workloads.h"
#include "src/net/frame.h"

namespace perfbench {

using namespace adgc;

namespace {

constexpr std::size_t kStandingRefs = 20'000;
constexpr std::size_t kTableHolders = 20;
constexpr std::size_t kCallers = 4;
constexpr double kCallsPerSecond = 4000;  // all callers together
constexpr std::size_t kExportsPerCall = 10;
constexpr std::size_t kPayloadBytes = 4096;
constexpr std::size_t kReleaseLag = 256;  // W, in calls of one caller
constexpr double kReclaimPollS = 0.005;
constexpr double kRmiTimeoutS = 5.0;
constexpr int kSetupReps = 15;
constexpr double kWarmupS = 0.5;
constexpr double kDrainTimeoutS = 20.0;
constexpr double kSampleIntervalS = 0.25;
constexpr double kActorWaitIntervalS = 0.01;
constexpr std::size_t kMaxRmiSpans = 4000;

/// One RMI. Written by the client's loop thread when it issues the call,
/// read by the generator once the matching reply has been counted.
struct Call {
  std::size_t caller = 0;
  std::atomic<double> issue_t{0};
  std::vector<ObjectSeq> exports;  // client loop thread only
  ObjectSeq tracked = kNoObject;   // the export whose reclaim is timed
};

struct Caller {
  ObjectSeq obj = kNoObject;
  RefId ref = kNoRef;
  ObjectSeq sink = kNoObject;  // at the server
  bool busy = false;           // a call is outstanding
  double next_due = 0;
};

/// Reports from the nodes' loop threads to the generator.
struct Reports {
  std::mutex mu;
  std::vector<std::pair<ObjectSeq, double>> released;  // client object, release time
  std::vector<std::pair<ObjectSeq, double>> gone;      // tracked object seen gone
  bool poll_running = false;
};

struct Window {
  Samples rmi_us, reclaim_ms, gen_late_ms;
  Slicer slicer{0, 0};
  double completed = 0;
  Metrics start, end;
  double wall_s = 0, cpu_s = 0;
  Cluster::Tables t_start, t_end;
};

class RmiChurn {
 public:
  explicit RmiChurn(const Options& o) : opts_(o), rng_(o.seed), spans_(o.trace), probe_(spans_) {}

  RunResult run();

 private:
  double setup_once(std::uint64_t cluster_seed);
  Window window(double seconds, bool traced, ProbeWorker* worker);
  /// Posts one call for `caller` to the client.
  void issue(std::size_t caller);
  /// Matches counted replies to calls and releases their exports.
  void complete(Window* w, bool traced);
  /// Issues every idle caller's call that is due; returns true if it did.
  bool issue_due(double now, Window* w);
  /// Posts a reclaim poll; folds in what earlier polls and releases reported.
  void poll_reclaim(Window* w);
  bool drain();
  E2e e2e_of(const Window& w) const;
  InvokeMsg representative_invoke() const;

  Options opts_;
  std::mt19937_64 rng_;
  SpanLog spans_;
  LayerProbe probe_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<Caller> callers_;
  std::vector<ObjectSeq> standing_;  // server objects the table points at
  ObjectSeq client_sentinel_ = kNoObject, server_sentinel_ = kNoObject;
  std::size_t client_baseline_ = 0;
  std::shared_ptr<Reports> reports_ = std::make_shared<Reports>();
  std::deque<std::shared_ptr<Call>> outstanding_;  // issue order
  std::unordered_set<ObjectSeq> tracked_;            // issued, reply seen
  std::unordered_map<ObjectSeq, double> released_;   // tracked, released, not yet gone
  std::uint64_t counted_replies_ = 0;
  std::uint64_t issued_total_ = 0;
  std::size_t rmi_spans_ = 0;
  RunResult res_;
};

double RmiChurn::setup_once(std::uint64_t cluster_seed) {
  cluster_.reset();  // the previous repetition's teardown is not set-up time
  callers_.clear();
  standing_.clear();
  const double t0 = now_s();
  // Client and server on CPUs 0 and 1, generator on 2, probe worker on 3.
  cluster_ = std::make_unique<Cluster>(2, cluster_seed, "", std::vector<int>{0, 1}, 2);
  NodeRuntime& client = cluster_->node(0);
  NodeRuntime& server = cluster_->node(1);

  std::vector<ExportedRef> standing_refs, sink_refs;
  std::vector<ObjectSeq> sinks;
  server.post_sync([&](Process& p) {
    for (std::size_t i = 0; i < kStandingRefs; ++i) {
      const ObjectSeq seq = p.create_object();
      p.add_root(seq);
      standing_.push_back(seq);
      standing_refs.push_back(p.export_own_object(seq, 0));
    }
    for (std::size_t c = 0; c < kCallers; ++c) {
      const ObjectSeq seq = p.create_object();
      p.add_root(seq);
      sinks.push_back(seq);
      sink_refs.push_back(p.export_own_object(seq, 0));
    }
    server_sentinel_ = p.create_object();
    p.add_root(server_sentinel_);
  });
  client.post_sync([&](Process& p) {
    std::vector<ObjectSeq> holders;
    for (std::size_t i = 0; i < kTableHolders; ++i) {
      holders.push_back(p.create_object());
      p.add_root(holders.back());
    }
    for (const ExportedRef& er : standing_refs) p.install_ref(holders[rng_() % holders.size()], er);
    for (std::size_t c = 0; c < kCallers; ++c) {
      Caller caller;
      caller.obj = p.create_object();
      p.add_root(caller.obj);
      caller.ref = p.install_ref(caller.obj, sink_refs[c]);
      caller.sink = sinks[c];
      callers_.push_back(caller);
    }
    client_sentinel_ = p.create_object();
    p.add_root(client_sentinel_);
    client_baseline_ = p.heap().size();
    // Announce the table now instead of at the next periodic LGC, whose
    // phase would otherwise set most of the set-up time.
    p.run_lgc();
  });
  // Ready once the client's first NewSetStubs confirmed every standing scion.
  const std::size_t want = kStandingRefs + kCallers;
  const double deadline = now_s() + 10.0;
  for (;;) {
    std::size_t confirmed = 0;
    server.post_sync([&](Process& p) {
      for (const auto& [ref, s] : p.scions()) confirmed += s.confirmed ? 1 : 0;
    });
    if (confirmed >= want) break;
    if (now_s() > deadline) throw std::runtime_error("rmi_churn: standing table never confirmed");
    fine_sleep_us(200);
  }
  counted_replies_ = cluster_->proc_metrics(0).replies_received.get();
  outstanding_.clear();
  return now_s() - t0;
}

void RmiChurn::issue(std::size_t caller) {
  auto call = std::make_shared<Call>();
  call->caller = caller;
  call->exports.reserve(kExportsPerCall);
  const std::size_t pick = rng_() % kExportsPerCall;
  const Caller c = callers_[caller];
  cluster_->node(0).post([call, c, pick](Process& p) {
    std::vector<ArgRef> args;
    for (std::size_t k = 0; k < kExportsPerCall; ++k) {
      const ObjectSeq seq = p.create_object();
      p.add_root(seq);
      call->exports.push_back(seq);
      args.push_back(ArgRef::own(seq));
    }
    call->tracked = call->exports[pick];
    call->issue_t.store(now_s(), std::memory_order_release);
    p.invoke(c.obj, c.ref, InvokeEffect::kStoreArgs, std::move(args), true, kPayloadBytes);
  });
  outstanding_.push_back(std::move(call));
  ++issued_total_;
}

bool RmiChurn::issue_due(double now, Window* w) {
  bool issued = false;
  for (std::size_t c = 0; c < callers_.size(); ++c) {
    Caller& caller = callers_[c];
    if (caller.busy || now < caller.next_due) continue;
    if (w) w->gen_late_ms.add((now - caller.next_due) * 1e3);
    issue(c);
    caller.busy = true;
    caller.next_due += static_cast<double>(kCallers) / kCallsPerSecond;
    issued = true;
  }
  return issued;
}

void RmiChurn::complete(Window* w, bool traced) {
  const double now = now_s();
  const std::uint64_t replies = cluster_->proc_metrics(0).replies_received.get();
  for (; counted_replies_ < replies && !outstanding_.empty(); ++counted_replies_) {
    std::shared_ptr<Call> call = std::move(outstanding_.front());
    outstanding_.pop_front();
    double t0 = call->issue_t.load(std::memory_order_acquire);
    while (t0 == 0) t0 = call->issue_t.load(std::memory_order_acquire);
    if (w) {
      w->rmi_us.add((now - t0) * 1e6);
      w->completed += 1;
    }
    if (traced && rmi_spans_ < kMaxRmiSpans) {
      ++rmi_spans_;
      spans_.complete("rmi", t0, now, 0, "rmi");
    }
    tracked_.insert(call->tracked);
    // The reply landed: the client drops its roots on the exports, and the
    // server drops what it stored kReleaseLag calls ago on this sink.
    cluster_->node(0).post([call](Process& p) {
      for (ObjectSeq e : call->exports) p.remove_root(e);
    });
    const ObjectSeq sink = callers_[call->caller].sink;
    cluster_->node(1).post([sink, rep = reports_](Process& p) {
      HeapObject* o = p.heap().find(sink);
      const std::size_t keep = kReleaseLag * kExportsPerCall;
      if (!o || o->remote_fields.size() <= keep) return;
      const std::vector<RefId> drop(o->remote_fields.begin(),
                                    o->remote_fields.end() - static_cast<std::ptrdiff_t>(keep));
      std::vector<ObjectSeq> released;
      for (RefId r : drop) {
        if (const StubEntry* st = p.stubs().find(r)) released.push_back(st->target.seq);
        p.remove_remote_ref(sink, r);
      }
      const double t = now_s();
      std::lock_guard<std::mutex> lk(rep->mu);
      for (ObjectSeq s : released) rep->released.emplace_back(s, t);
    });
    callers_[call->caller].busy = false;
  }
  if (!outstanding_.empty()) {
    const double t0 = outstanding_.front()->issue_t.load(std::memory_order_acquire);
    if (t0 > 0 && now - t0 > kRmiTimeoutS) {
      throw std::runtime_error("rmi_churn: no reply within " + std::to_string(kRmiTimeoutS) + " s");
    }
  }
}

void RmiChurn::poll_reclaim(Window* w) {
  std::vector<ObjectSeq> watch;
  {
    std::lock_guard<std::mutex> lk(reports_->mu);
    for (const auto& [seq, t] : reports_->released) {
      if (tracked_.erase(seq) > 0) released_.emplace(seq, t);
    }
    reports_->released.clear();
    for (const auto& [seq, t] : reports_->gone) {
      auto it = released_.find(seq);
      if (it == released_.end()) continue;
      if (w) w->reclaim_ms.add((t - it->second) * 1e3);
      released_.erase(it);
    }
    reports_->gone.clear();
    if (reports_->poll_running || released_.empty()) return;
    reports_->poll_running = true;
  }
  for (const auto& [seq, t] : released_) watch.push_back(seq);
  cluster_->node(0).post([watch = std::move(watch), rep = reports_](Process& p) {
    const double t = now_s();
    std::vector<ObjectSeq> gone;
    for (ObjectSeq s : watch) {
      if (!p.heap().exists(s)) gone.push_back(s);
    }
    std::lock_guard<std::mutex> lk(rep->mu);
    for (ObjectSeq s : gone) rep->gone.emplace_back(s, t);
    rep->poll_running = false;
  });
}

Window RmiChurn::window(double seconds, bool traced, ProbeWorker* worker) {
  Window w;
  w.t_start = cluster_->tables();
  w.start = cluster_->totals();
  w.slicer = Slicer(wire_bytes(representative_invoke()), wire_bytes(ReplyMsg{}));
  w.slicer.mark(w.start, 0, 0);
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  double next_poll = t0 + kReclaimPollS;
  double next_wait = t0 + kActorWaitIntervalS;
  double next_sample = t0;
  std::size_t wait_node = 0;
  auto wait_mu = std::make_shared<std::mutex>();
  auto waits = std::make_shared<Samples>();
  const std::uint64_t window_span = spans_.begin(traced ? "window.traced" : "window", 0, "bench");
  // Stagger the callers' schedules across one period.
  for (std::size_t c = 0; c < callers_.size(); ++c) {
    callers_[c].next_due = t0 + static_cast<double>(c) / kCallsPerSecond;
  }
  for (;;) {
    const double now = now_s();
    if (now >= t_end) break;
    const std::uint64_t before = counted_replies_;
    complete(&w, traced);
    bool acted = counted_replies_ != before;
    acted = issue_due(now, &w) || acted;
    if (now >= next_poll) {
      poll_reclaim(&w);
      next_poll = std::max(next_poll + kReclaimPollS, now);
      acted = true;
    }
    if (w.slicer.due()) w.slicer.mark(cluster_->totals(), w.completed, w.completed);
    if (traced && now >= next_wait) {
      cluster_->sample_actor_wait(wait_node, wait_mu, waits);
      wait_node = (wait_node + 1) % cluster_->size();
      next_wait = std::max(next_wait + kActorWaitIntervalS, now);
    }
    if (traced && worker && now >= next_sample) {
      worker->offer([this](std::uint64_t sp) { return cluster_->capture_all(spans_, sp); },
                    representative_invoke(), window_span);
      next_sample = std::max(next_sample + kSampleIntervalS, now);
    }
    if (!acted) fine_sleep_us(20);
  }
  w.wall_s = now_s() - t0;
  w.cpu_s = process_cpu_s() - cpu0;
  w.end = cluster_->totals();
  w.slicer.mark(w.end, w.completed, w.completed);
  w.t_end = cluster_->tables();  // also flushes the posted actor-wait probes
  {
    std::lock_guard<std::mutex> lk(*wait_mu);
    for (double v : waits->values()) probe_.actor_wait_us.add(v);
  }
  spans_.end(window_span);
  return w;
}

bool RmiChurn::drain() {
  // Let outstanding calls land, then release everything the sinks store.
  const double deadline = now_s() + kDrainTimeoutS;
  while (!outstanding_.empty()) {
    if (now_s() > deadline) return false;
    complete(nullptr, false);
    fine_sleep_us(200);
  }
  for (const Caller& c : callers_) {
    cluster_->node(1).post_sync([&](Process& p) {
      HeapObject* o = p.heap().find(c.sink);
      if (!o) return;
      const std::vector<RefId> drop = o->remote_fields;
      for (RefId r : drop) p.remove_remote_ref(c.sink, r);
    });
  }
  for (;;) {
    std::size_t heap = 0;
    cluster_->node(0).post_sync([&](Process& p) { heap = p.heap().size(); });
    if (heap <= client_baseline_) return true;
    if (now_s() > deadline) {
      res_.violation("rmi_churn: acyclic garbage left after drain: " +
                         std::to_string(heap - client_baseline_) + " objects",
                     heap - client_baseline_);
      return false;
    }
    fine_sleep_us(5000);
  }
}

InvokeMsg RmiChurn::representative_invoke() const {
  InvokeMsg inv;
  inv.ref = make_ref_id(0, 1);
  inv.ic = 7;
  inv.target = ObjectId{1, 1};
  inv.caller = ObjectId{0, 1};
  inv.effect = InvokeEffect::kStoreArgs;
  for (std::size_t k = 0; k < kExportsPerCall; ++k) {
    inv.args.push_back(ExportedRef{make_ref_id(0, 100 + k), ObjectId{0, 100 + k}});
  }
  inv.payload.assign(kPayloadBytes, std::byte{0});
  inv.call_id = 42;
  return inv;
}

E2e RmiChurn::e2e_of(const Window& w) const {
  E2e e;
  w.slicer.fill(e);
  e.reclaim_p50_ms = w.reclaim_ms.quantile(0.5);
  e.reclaim_tail_ms = w.reclaim_ms.quantile(0.99);
  return e;
}

RunResult RmiChurn::run() {
  set_fine_timer_slack();
  Samples setup;
  // Each repetition de-phases the collectors differently, so the median does
  // not hinge on one timer phase.
  for (int i = 0; i < kSetupReps; ++i) setup.add(setup_once(opts_.seed * 16 + i));

  // Warm-up: connections, allocator and the first collector rounds.
  (void)window(kWarmupS, false, nullptr);
  const std::uint64_t issued0 = issued_total_;

  const auto steady_drift = [](const Window& w) {
    const double slack = 0.25 * kCallers * kReleaseLag * kExportsPerCall;
    return std::max({drift(w.t_start.heap, w.t_end.heap, slack),
                     drift(w.t_start.stubs, w.t_end.stubs, slack),
                     drift(w.t_start.scions, w.t_end.scions, slack)});
  };

  const double half = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
  Window plain = window(half, false, nullptr);
  MetricMap plain_e2e;
  fill_e2e(e2e_of(plain), setup.median(), plain_e2e);
  double worst_drift = steady_drift(plain);
  if (opts_.trace) {
    ProbeWorker worker(probe_, /*core=*/3);  // nodes on 0 and 1, generator on 2
    Window traced = window(half, true, &worker);
    worker.drain();
    MetricMap traced_e2e;
    fill_e2e(e2e_of(traced), setup.median(), traced_e2e);
    worst_drift = std::max(worst_drift, steady_drift(traced));
    LayerContext c;
    c.start = traced.start;
    c.end = traced.end;
    c.wall_s = traced.wall_s;
    c.cpu_s = traced.cpu_s;
    c.ops = traced.completed;
    c.heap_objects = traced.t_end.heap;
    c.stubs = traced.t_end.stubs;
    c.scions = traced.t_end.scions;
    c.steady_drift = worst_drift;
    c.gen_late_ms = traced.gen_late_ms;
    c.rmi_samples = static_cast<double>(traced.rmi_us.size());
    c.reclaim_samples = static_cast<double>(traced.reclaim_ms.size());
    fill_layer_metrics(probe_, c, res_.layers);
    fill_trace_overhead(plain_e2e, traced_e2e, res_.layers);
  }
  res_.e2e = plain_e2e;
  res_.notes.push_back("rmi_churn: rmi samples=" + std::to_string(plain.rmi_us.size()) +
                       " reclaim samples=" + std::to_string(plain.reclaim_ms.size()) +
                       " steady_drift=" + std::to_string(worst_drift));
  if (worst_drift > 0.25) res_.violation("rmi_churn: not steady (table drift " +
                                         std::to_string(worst_drift) + ")");

  const std::uint64_t measured = issued_total_ - issued0;
  drain();
  res_.attempted = measured * (1 + kExportsPerCall);

  // Safety: every rooted object on both sides survived.
  std::size_t missing = 0;
  cluster_->node(1).post_sync([&](Process& p) {
    for (ObjectSeq s : standing_) missing += p.heap().exists(s) ? 0 : 1;
    missing += p.heap().exists(server_sentinel_) ? 0 : 1;
  });
  cluster_->node(0).post_sync([&](Process& p) {
    missing += p.heap().exists(client_sentinel_) ? 0 : 1;
    missing += p.stubs().size() >= kStandingRefs + kCallers ? 0 : 1;
  });
  if (missing > 0) res_.violation("rmi_churn: rooted objects lost", missing);

  if (opts_.trace) {
    spans_.write(opts_.out_dir + "/rmi_churn-seed" + std::to_string(opts_.seed) + ".trace.json");
  }
  cluster_->stop();
  return res_;
}

}  // namespace

RunResult run_rmi_churn(const Options& opts) { return RmiChurn(opts).run(); }

}  // namespace perfbench
