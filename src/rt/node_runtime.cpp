#include "src/rt/node_runtime.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/log.h"
#include "src/obs/prom.h"

namespace adgc {

NodeRuntime::NodeRuntime(Options opts) : opts_(std::move(opts)) {
  ActorHost::Wiring wiring;
  wiring.send = [this](Envelope env) {
    env.src_inc = incarnation_;
    env.dst_inc = transport_->last_known_incarnation(env.dst);
    transport_->send(std::move(env));
  };
  // Staleness against the hello-learned view: a message from a dead
  // incarnation of the sender reflects rolled-back state; one addressed to
  // a dead incarnation of us may reference identifiers this incarnation
  // never knew.
  wiring.stale = [this](const Envelope& env) {
    const Incarnation known = transport_->last_known_incarnation(env.src);
    return (known != kUnknownIncarnation && env.src_inc < known) ||
           (env.dst_inc != kUnknownIncarnation && env.dst_inc != incarnation_);
  };
  host_ = std::make_unique<ActorHost>(
      opts_.pid, opts_.cfg.seed ^ (std::uint64_t{opts_.pid} * 0x9e3779b97f4a7c15ULL),
      opts_.cfg.proc.trace_ring_capacity, std::move(wiring));
}

NodeRuntime::~NodeRuntime() { stop(0); }

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

  ProcessConfig& proc_cfg = opts_.cfg.proc;
  if (proc_cfg.snapshot_dir.empty() && !opts_.state_dir.empty()) {
    proc_cfg.snapshot_dir = (std::filesystem::path(opts_.state_dir) / "snapshots").string();
  }

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
  topts.seed = opts_.cfg.seed ^ (std::uint64_t{opts_.pid} << 32) ^ incarnation_;
  if (opts_.admin_enabled) {
    const PeerAddr admin = parse_peer_addr(opts_.admin_listen, /*allow_port_zero=*/true);
    topts.admin_enabled = true;
    topts.admin_host = admin.host;
    topts.admin_port = admin.port;
  }
  transport_ = std::make_unique<TcpTransport>(topts, net_metrics_);
  transport_->set_admin_handler(
      [this](const obs::HttpRequest& req) { return handle_admin(req); });
  transport_->set_deliver([this](Envelope&& env) { host_->deliver(std::move(env)); });
  transport_->set_peer_restart([this](ProcessId peer, Incarnation inc) {
    ADGC_INFO("node P" << opts_.pid << ": peer P" << peer
                       << " restarted under incarnation " << inc);
    host_->run([peer](Process& p) { p.on_peer_crashed(peer); });
  });
  transport_->set_connect_failed([this](ProcessId peer) {
    // Bridge onto the loop thread: a refused/unreachable connect is a
    // request the peer left unanswered, one failure strike toward suspicion
    // on top of the eviction escalation's unanswered NssSolicit probes.
    host_->run([this, peer](Process& p) { p.peer_health().on_timeout(peer, host_->now()); });
  });

  host_->set_process(std::make_unique<Process>(opts_.pid, proc_cfg, *host_, incarnation_));
  Process& proc = *host_->process();
  proc.set_peer_evicted_hook([this](ProcessId peer) { transport_->drop_peer(peer); });
  proc.set_self_evicted_hook([this](ProcessId) {
    self_evicted_.store(true, std::memory_order_release);
  });
  if (incarnation_ > 0) recovered_ = host_->recover();

  transport_->start();  // throws on bind failure, before any thread exists
  running_.store(true, std::memory_order_release);
  host_->start();
  if (opts_.admin_enabled) host_->post([this] { refresh_health_cache(); });
}

void NodeRuntime::stop(SimTime drain_us) {
  if (!running_.exchange(false)) return;
  host_->stop();
  // Loop thread is gone. Wait out the snapshot worker, so that no persist
  // touches the state directory once stop() returns, then hand any batched
  // control messages to the transport so the drain below can put them on
  // the wire.
  if (Process* proc = host_->process()) {
    proc->cancel_snapshot();
    proc->flush_batches();
  }
  if (transport_) transport_->stop(drain_us);
}

void NodeRuntime::post(std::function<void(Process&)> fn) { host_->run(std::move(fn)); }

void NodeRuntime::post_sync(std::function<void(Process&)> fn) { host_->run_sync(fn); }

Metrics NodeRuntime::total_metrics() {
  Metrics total;
  total.merge(net_metrics_);
  total.merge(host_->metrics());
  return total;
}

std::vector<obs::Event> NodeRuntime::trace_events() const {
  if (const obs::TraceRing* ring = host_->trace()) return ring->snapshot();
  return {};
}

void NodeRuntime::refresh_health_cache() {
  // Loop thread: the only thread allowed to read the peer-health tracker.
  if (const Process* proc = host_->process()) {
    const SimTime now = host_->now();
    const PeerHealthTracker& health = proc->peer_health();
    std::ostringstream os;
    os << "node P" << opts_.pid << " inc=" << incarnation_
       << (self_evicted() ? " SELF-EVICTED" : " ok") << "\n";
    os << "peers tracked=" << health.size()
       << " suspected=" << health.suspected_count()
       << " tombstones=" << health.eviction_tombstones().size() << "\n";
    for (ProcessId peer : health.known_peers()) {
      os << "peer P" << peer << " failures=" << health.consecutive_failures(peer)
         << " last_heard_ms=";
      if (const SimTime heard = health.last_heard(peer); heard > 0) {
        os << (now - heard) / 1000;
      } else {
        os << "never";
      }
      os << (health.suspected(peer) ? " SUSPECTED" : "") << "\n";
    }
    for (const auto& [peer, inc] : health.eviction_tombstones()) {
      os << "evicted P" << peer << " inc<=" << inc << "\n";
    }
    std::lock_guard<std::mutex> lk(health_mu_);
    health_cache_ = os.str();
  }
  host_->schedule(500'000, [this] { refresh_health_cache(); });
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
