#include "src/rt/node_runtime.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "src/common/log.h"
#include "src/obs/prom.h"

namespace adgc {

namespace {
SimTime steady_us() {
  return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count());
}
}  // namespace

/// Env bound to the node's loop thread. Timers in a min-heap drained by the
/// loop; schedule() is only ever called from that thread (the Process is an
/// actor), so no locking.
class NodeRuntime::NodeEnv final : public Env {
 public:
  NodeEnv(NodeRuntime& rt, std::uint64_t seed)
      : rt_(rt), rng_(seed), trace_(rt.opts_.cfg.proc.trace_ring_capacity) {}

  SimTime now() const override { return steady_us(); }

  void send(ProcessId dst, const MessagePayload& msg) override {
    send_encoded(dst, encode_message(msg));
  }

  void send_encoded(ProcessId dst, std::vector<std::byte> bytes) override {
    Envelope env;
    env.src = rt_.opts_.pid;
    env.dst = dst;
    env.src_inc = rt_.incarnation_;
    env.dst_inc = rt_.transport_->last_known_incarnation(dst);
    env.bytes = std::move(bytes);
    rt_.transport_->send(std::move(env));
  }

  void schedule(SimTime delay, std::function<void()> fn) override {
    timers_.push(Timer{now() + delay, next_timer_seq_++, std::move(fn)});
  }

  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }
  obs::TraceRing* trace() override { return trace_.enabled() ? &trace_ : nullptr; }

  /// Thread-safe: the snapshot pipeline's worker hands its completion back
  /// to the node's loop thread through the work queue.
  void post(std::function<void()> fn) override {
    rt_.enqueue(std::move(fn));
  }

  bool real_time() const override { return true; }

  /// Fires every due timer; returns microseconds until the next one (or a
  /// default poll interval when none are queued).
  SimTime pump_timers() {
    const SimTime now_us = now();
    while (!timers_.empty() && timers_.top().deadline <= now_us) {
      auto fn = timers_.top().fn;  // copy before pop: fn may schedule more
      timers_.pop();
      fn();
    }
    if (timers_.empty()) return 10'000;
    const SimTime next = timers_.top().deadline;
    const SimTime cur = now();
    return next > cur ? next - cur : 0;
  }

 private:
  struct Timer {
    SimTime deadline;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator<(const Timer& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return seq > other.seq;
    }
  };

  NodeRuntime& rt_;
  Rng rng_;
  Metrics metrics_;
  obs::TraceRing trace_;
  std::priority_queue<Timer> timers_;
  std::uint64_t next_timer_seq_ = 0;
};

NodeRuntime::NodeRuntime(Options opts) : opts_(std::move(opts)) {}

NodeRuntime::~NodeRuntime() {
  stop(0);
  // The Process owns the snapshot worker, which may still post completions
  // through enqueue(). Members die in reverse declaration order, queue_,
  // cv_ and mu_ before proc_, so join the worker while they are alive.
  proc_.reset();
}

Incarnation NodeRuntime::load_and_bump_incarnation() {
  if (opts_.state_dir.empty()) return 0;
  namespace fs = std::filesystem;
  const fs::path dir = opts_.state_dir;
  fs::create_directories(dir);
  const fs::path file = dir / ("incarnation_P" + std::to_string(opts_.pid));
  Incarnation inc = 0;
  if (std::ifstream in(file); in) {
    std::uint64_t stored = 0;
    if (in >> stored) inc = static_cast<Incarnation>(stored) + 1;
  }
  // Persist before touching the network: if we crash mid-start, the next
  // start bumps past this value, never below it.
  const fs::path tmp = file.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << inc << "\n";
  }
  fs::rename(tmp, file);
  return inc;
}

void NodeRuntime::start() {
  if (running_.load()) return;
  incarnation_ = load_and_bump_incarnation();

  RuntimeConfig cfg = opts_.cfg;
  if (cfg.proc.snapshot_dir.empty() && !opts_.state_dir.empty()) {
    cfg.proc.snapshot_dir =
        (std::filesystem::path(opts_.state_dir) / "snapshots").string();
  }
  opts_.cfg = cfg;

  // Bind addresses may use port 0 (kernel-assigned; the node announces the
  // actual ports). Peer-map entries stay strict.
  const PeerAddr listen = parse_peer_addr(opts_.listen, /*allow_port_zero=*/true);
  TcpTransport::Options topts;
  topts.self = opts_.pid;
  topts.incarnation = incarnation_;
  topts.listen_host = listen.host;
  topts.listen_port = listen.port;
  topts.peers = opts_.peers;
  topts.peer_queue_limit = opts_.peer_queue_limit;
  topts.seed = cfg.seed ^ (std::uint64_t{opts_.pid} << 32) ^ incarnation_;
  if (opts_.admin_enabled) {
    const PeerAddr admin = parse_peer_addr(opts_.admin_listen, /*allow_port_zero=*/true);
    topts.admin_enabled = true;
    topts.admin_host = admin.host;
    topts.admin_port = admin.port;
  }
  transport_ = std::make_unique<TcpTransport>(topts, net_metrics_);
  transport_->set_admin_handler(
      [this](const obs::HttpRequest& req) { return handle_admin(req); });
  transport_->set_deliver([this](Envelope&& env) { enqueue(std::move(env)); });
  transport_->set_peer_restart([this](ProcessId peer, Incarnation inc) {
    ADGC_INFO("node P" << opts_.pid << ": peer P" << peer
                       << " restarted under incarnation " << inc);
    enqueue(std::function<void()>([this, peer] { proc_->on_peer_crashed(peer); }));
  });
  transport_->set_connect_failed([this](ProcessId peer) {
    // Bridge onto the loop thread: a refused/unreachable connect counts as a
    // timed-out interaction for phi-accrual suspicion — it is the only
    // failure signal a SIGKILLed peer ever produces.
    enqueue(std::function<void()>([this, peer] {
      proc_->peer_health().on_timeout(peer, env_->now());
    }));
  });

  env_ = std::make_unique<NodeEnv>(
      *this, cfg.seed ^ (std::uint64_t{opts_.pid} * 0x9e3779b97f4a7c15ULL));
  proc_ = std::make_unique<Process>(opts_.pid, opts_.cfg.proc, *env_, incarnation_);
  proc_->set_peer_evicted_hook(
      [this](ProcessId peer) { transport_->drop_peer(peer); });
  proc_->set_self_evicted_hook([this](ProcessId) {
    self_evicted_.store(true, std::memory_order_release);
  });
  if (incarnation_ > 0) {
    recovered_ = proc_->recover_from_store();
    env_->metrics().process_restarts.add();
    if (recovered_) env_->metrics().restarts_recovered.add();
    obs::emit(env_->trace(),
              {env_->now(), opts_.pid, obs::EventType::kRestart, 0, opts_.pid,
               incarnation_, recovered_ ? 1u : 0u});
  }

  transport_->start();  // throws on bind failure, before any thread exists
  loop_stop_.store(false);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
  post([](Process& p) { p.start(); });
  if (opts_.admin_enabled) {
    enqueue(std::function<void()>([this] { refresh_health_cache(); }));
  }
}

void NodeRuntime::stop(SimTime drain_us) {
  if (!running_.exchange(false)) return;
  loop_stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Loop thread is gone; hand any batched control messages to the transport
  // so the drain below can put them on the wire.
  if (proc_) proc_->flush_batches();
  if (transport_) transport_->stop(drain_us);
}

void NodeRuntime::enqueue(WorkItem item) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void NodeRuntime::post(std::function<void(Process&)> fn) {
  enqueue(std::function<void()>([this, fn = std::move(fn)] {
    if (proc_) fn(*proc_);
  }));
}

void NodeRuntime::post_sync(std::function<void(Process&)> fn) {
  if (!running_.load(std::memory_order_acquire)) {
    // Loop thread is gone (before start() or after stop()): nothing else
    // can touch the Process, so run inline instead of deadlocking on a
    // closure nobody will drain.
    if (proc_) fn(*proc_);
    return;
  }
  std::promise<void> done;
  auto fut = done.get_future();
  enqueue(std::function<void()>([this, &fn, &done] {
    if (proc_) fn(*proc_);
    done.set_value();
  }));
  fut.wait();
}

void NodeRuntime::loop() {
  while (!loop_stop_.load(std::memory_order_acquire)) {
    const SimTime wait = std::min<SimTime>(env_->pump_timers(), 10'000);
    WorkItem item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (queue_.empty()) {
        cv_.wait_for(lk, std::chrono::microseconds(wait), [this] {
          return !queue_.empty() || loop_stop_.load(std::memory_order_acquire);
        });
      }
      if (queue_.empty()) continue;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (auto* env = std::get_if<Envelope>(&item)) {
      // Staleness filtering, as in the in-memory runtimes but against the
      // hello-learned view: a message from a dead incarnation of the sender
      // reflects rolled-back state; one addressed to a dead incarnation of
      // us may reference identifiers this incarnation never knew.
      const Incarnation known = transport_->last_known_incarnation(env->src);
      const bool stale_src = known != kUnknownIncarnation && env->src_inc < known;
      const bool stale_dst =
          env->dst_inc != kUnknownIncarnation && env->dst_inc != incarnation_;
      if (stale_src || stale_dst) {
        env_->metrics().messages_stale_incarnation.add();
        continue;
      }
      env_->metrics().messages_delivered.add();
      proc_->deliver(*env);
    } else {
      std::get<std::function<void()>>(item)();
    }
  }
}

Metrics NodeRuntime::total_metrics() {
  Metrics total;
  total.merge(net_metrics_);
  if (env_) total.merge(env_->metrics());
  return total;
}

std::vector<obs::Event> NodeRuntime::trace_events() const {
  if (!env_) return {};
  if (const obs::TraceRing* ring = env_->trace()) return ring->snapshot();
  return {};
}

void NodeRuntime::refresh_health_cache() {
  // Loop thread: the only thread allowed to read the peer-health tracker.
  if (proc_) {
    const SimTime now = env_->now();
    PeerHealthTracker& health = proc_->peer_health();
    std::ostringstream os;
    os << "node P" << opts_.pid << " inc=" << incarnation_
       << (self_evicted() ? " SELF-EVICTED" : " ok") << "\n";
    os << "peers tracked=" << health.size()
       << " suspected=" << health.suspected_count()
       << " tombstones=" << health.eviction_tombstones().size() << "\n";
    for (ProcessId peer : health.known_peers()) {
      os << "peer P" << peer << " srtt_us=" << static_cast<std::uint64_t>(health.srtt_us(peer))
         << " failures=" << health.consecutive_failures(peer)
         << " outstanding=" << health.outstanding(peer)
         << " phi=" << health.phi(peer, now)
         << (health.suspected(peer, now) ? " SUSPECTED" : "") << "\n";
    }
    for (const auto& [peer, inc] : health.eviction_tombstones()) {
      os << "evicted P" << peer << " inc<=" << inc << "\n";
    }
    std::lock_guard<std::mutex> lk(health_mu_);
    health_cache_ = os.str();
  }
  env_->schedule(500'000, [this] { refresh_health_cache(); });
}

obs::AdminResponse NodeRuntime::handle_admin(const obs::HttpRequest& req) {
  obs::AdminResponse resp;
  if (req.target == "/metrics") {
    // Counters and histograms are atomics: summing them off-thread is safe.
    resp.body = obs::render_prometheus(total_metrics());
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (req.target == "/healthz") {
    if (self_evicted()) resp.status = 503;
    std::lock_guard<std::mutex> lk(health_mu_);
    resp.body = health_cache_;
  } else if (req.target == "/tracez") {
    std::ostringstream os;
    for (const obs::Event& ev : trace_events()) {
      os << ev.ts << " P" << ev.proc << " " << obs::to_string(ev.type);
      if (ev.type == obs::EventType::kDetectionAborted) {
        os << " reason=" << obs::to_string(static_cast<obs::AbortReason>(ev.arg));
      }
      os << " a32=" << ev.a32 << " a64=" << ev.a64 << " b64=" << ev.b64 << "\n";
    }
    resp.body = os.str();
    if (resp.body.empty()) resp.body = "trace ring empty or disabled\n";
  } else if (req.target == "/" || req.target == "/index.html") {
    resp.body = "adgc_node P" + std::to_string(opts_.pid) +
                "\n/metrics  Prometheus exposition\n/healthz  peer health\n"
                "/tracez   recent protocol events\n";
  } else {
    resp.status = 404;
    resp.body = "not found\n";
  }
  return resp;
}

}  // namespace adgc
