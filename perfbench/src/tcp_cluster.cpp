#include "perfbench/src/tcp_cluster.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

using namespace adgc;

namespace {

/// Binds port 0 to learn a free port, then releases it for the node.
std::uint16_t reserve_port() {
  Metrics m;
  TcpTransport::Options o;
  o.self = 999;
  TcpTransport probe(o, m);
  probe.start();
  const std::uint16_t port = probe.port();
  probe.stop(0);
  return port;
}

}  // namespace

Cluster::Cluster(std::size_t n, std::uint64_t seed, const std::string& state_root,
                 std::vector<int> node_cores, int caller_core)
    : state_root_(state_root) {
  std::map<ProcessId, PeerAddr> peers;
  for (std::size_t i = 0; i < n; ++i) {
    peers[static_cast<ProcessId>(i)] = PeerAddr{"127.0.0.1", reserve_port()};
  }
  for (std::size_t i = 0; i < n; ++i) {
    NodeRuntime::Options o;
    o.pid = static_cast<ProcessId>(i);
    o.cfg.seed = seed * 1000003 + i;
    o.listen = "127.0.0.1:" + std::to_string(peers[o.pid].port);
    o.peers = peers;
    if (!state_root.empty()) {
      const auto dir = std::filesystem::path(state_root) / ("node" + std::to_string(i));
      std::filesystem::remove_all(dir);
      o.state_dir = dir.string();
    }
    nodes_.push_back(std::make_unique<NodeRuntime>(std::move(o)));
  }
  // Threads inherit the creating thread's CPU mask: start each node while
  // pinned to its CPU, then settle the caller on its own.
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const bool pin = node_cores.size() == n && caller_core < cpus &&
                   std::all_of(node_cores.begin(), node_cores.end(),
                               [cpus](int c) { return c < cpus; });
  for (std::size_t i = 0; i < n; ++i) {
    if (pin) pin_current_thread(node_cores[i]);
    nodes_[i]->start();
  }
  if (pin) pin_current_thread(caller_core);
  for (auto& nd : nodes_) {
    const Metrics* m = nullptr;
    nd->post_sync([&](Process& p) { m = &p.metrics(); });
    proc_metrics_.push_back(m);
  }
}

Cluster::~Cluster() { stop(); }

void Cluster::stop() {
  for (auto& nd : nodes_) nd->stop(0);
  if (!state_root_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(state_root_, ec);
  }
}

Metrics Cluster::totals() {
  Metrics total;
  for (auto& nd : nodes_) total.merge(nd->total_metrics());
  return total;
}

std::vector<NodeState> Cluster::capture_all(SpanLog& spans, std::uint64_t parent) {
  std::vector<NodeState> out;
  for (auto& nd : nodes_) {
    Scope s(spans, "rt.capture_state", parent);
    nd->post_sync([&](Process& p) { out.push_back(capture_state(p)); });
  }
  return out;
}

void Cluster::sample_actor_wait(std::size_t i, std::shared_ptr<std::mutex> mu,
                                std::shared_ptr<Samples> waits) {
  const double t0 = now_s();
  nodes_.at(i)->post([t0, mu, waits](Process&) {
    const double us = (now_s() - t0) * 1e6;
    std::lock_guard<std::mutex> lk(*mu);
    waits->add(us);
  });
}

Cluster::Tables Cluster::tables() {
  Tables t;
  for (auto& nd : nodes_) {
    nd->post_sync([&](Process& p) {
      t.heap += static_cast<double>(p.heap().size());
      t.stubs += static_cast<double>(p.stubs().size());
      t.scions += static_cast<double>(p.scions().size());
    });
  }
  return t;
}

ProbeWorker::ProbeWorker(LayerProbe& probe, int core)
    : probe_(probe), core_(core), thread_([this] { loop(); }) {}

ProbeWorker::~ProbeWorker() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool ProbeWorker::busy() const {
  std::lock_guard<std::mutex> lk(mu_);
  return has_job_ || running_;
}

bool ProbeWorker::offer(Capture capture, std::optional<InvokeMsg> invoke, std::uint64_t parent) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (has_job_ || running_) return false;
    capture_ = std::move(capture);
    invoke_ = std::move(invoke);
    parent_ = parent;
    has_job_ = true;
  }
  cv_.notify_all();
  return true;
}

void ProbeWorker::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return !has_job_ && !running_; });
  if (!error_.empty()) throw std::runtime_error("layer probe failed: " + error_);
}

void ProbeWorker::loop() {
  if (core_ >= 0) pin_current_thread(core_);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || has_job_; });
    if (stop_) return;
    Capture capture = std::move(capture_);
    std::optional<InvokeMsg> invoke = std::move(invoke_);
    const std::uint64_t parent = parent_;
    has_job_ = false;
    running_ = true;
    lk.unlock();
    try {
      std::vector<NodeState> nodes = capture(parent);
      if (invoke) probe_.sample_invoke(*invoke, parent);
      probe_.sample(std::move(nodes), parent);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    lk.lock();
    running_ = false;
    cv_.notify_all();
  }
}

}  // namespace perfbench
