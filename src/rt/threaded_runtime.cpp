#include "src/rt/threaded_runtime.h"

#include <stdexcept>

namespace adgc {

ThreadedRuntime::ThreadedRuntime(std::size_t num_processes, RuntimeConfig cfg) : cfg_(cfg) {
  network_ = std::make_unique<ThreadedNetwork>(
      num_processes, cfg_.net, cfg_.seed, net_metrics_,
      [this](Envelope env) { hosts_.at(env.dst)->deliver(std::move(env)); });
  Rng seeder(cfg_.seed);
  for (std::size_t i = 0; i < num_processes; ++i) {
    const auto pid = static_cast<ProcessId>(i);
    ActorHost::Wiring wiring;
    wiring.send = [this](Envelope env) { network_->send(std::move(env)); };
    // The omniscient membership table: a message from a dead incarnation of
    // the sender, or addressed to a dead incarnation of this process.
    wiring.stale = [this, pid](const Envelope& env) {
      return env.src_inc != network_->incarnation(env.src) ||
             env.dst_inc != network_->incarnation(pid);
    };
    hosts_.push_back(std::make_unique<ActorHost>(pid, seeder.next_u64(),
                                                 cfg_.proc.trace_ring_capacity,
                                                 std::move(wiring)));
    hosts_.back()->set_process(std::make_unique<Process>(pid, cfg_.proc, *hosts_.back()));
  }
  for (auto& host : hosts_) host->start();
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void ThreadedRuntime::post(ProcessId pid, std::function<void(Process&)> fn) {
  hosts_.at(pid)->run(std::move(fn));
}

void ThreadedRuntime::post_sync(ProcessId pid, std::function<void(Process&)> fn) {
  hosts_.at(pid)->run_sync(fn);
}

void ThreadedRuntime::crash(ProcessId pid) {
  network_->set_down(pid, true);  // stop deliveries right away
  ActorHost& host = *hosts_.at(pid);
  host.post_sync([&host, pid] {
    host.set_process(nullptr);
    host.metrics().process_crashes.add();
    obs::emit(host.trace(), {host.now(), pid, obs::EventType::kCrash, 0, pid, 0, 0});
  });
  for (ProcessId p = 0; p < static_cast<ProcessId>(size()); ++p) {
    if (p == pid) continue;
    post(p, [pid](Process& proc) { proc.on_peer_crashed(pid); });
  }
}

bool ThreadedRuntime::restart(ProcessId pid) {
  if (alive(pid)) throw std::logic_error("restart: process is alive");
  // Bump first so concurrent senders either stamp the old incarnation (their
  // message is dropped by the stale check) or the new one; then reopen the
  // network and construct the process on its own thread. What arrives before
  // it is installed is dropped as if the network were still down.
  const Incarnation inc = network_->bump_incarnation(pid);
  network_->set_down(pid, false);
  ActorHost& host = *hosts_.at(pid);
  bool recovered = false;
  host.post_sync([&] {
    host.set_process(std::make_unique<Process>(pid, cfg_.proc, host, inc));
    recovered = host.recover();
    host.process()->start();
  });
  return recovered;
}

bool ThreadedRuntime::alive(ProcessId pid) const { return !network_->is_down(pid); }

Incarnation ThreadedRuntime::incarnation(ProcessId pid) const {
  return network_->incarnation(pid);
}

void ThreadedRuntime::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& host : hosts_) host->stop();
}

Metrics ThreadedRuntime::total_metrics() {
  Metrics total;
  total.merge(net_metrics_);
  for (auto& host : hosts_) total.merge(host->metrics());
  return total;
}

}  // namespace adgc
