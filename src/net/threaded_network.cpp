#include "src/net/threaded_network.h"

namespace adgc {

ThreadedNetwork::ThreadedNetwork(std::size_t num_processes, NetworkConfig cfg,
                                 std::uint64_t seed, Metrics& metrics, DeliverFn deliver)
    : cfg_(cfg),
      metrics_(metrics),
      deliver_(std::move(deliver)),
      rng_(seed),
      peers_(num_processes) {}

void ThreadedNetwork::set_down(ProcessId pid, bool down) {
  peers_.at(pid).down.store(down, std::memory_order_release);
}

bool ThreadedNetwork::is_down(ProcessId pid) const {
  return peers_.at(pid).down.load(std::memory_order_acquire);
}

Incarnation ThreadedNetwork::bump_incarnation(ProcessId pid) {
  return peers_.at(pid).inc.fetch_add(1, std::memory_order_acq_rel) + 1;
}

Incarnation ThreadedNetwork::incarnation(ProcessId pid) const {
  return peers_.at(pid).inc.load(std::memory_order_acquire);
}

void ThreadedNetwork::set_link_blocked(ProcessId a, ProcessId b, bool blocked) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  if (blocked) {
    blocked_.insert({a, b});
  } else {
    blocked_.erase({a, b});
  }
}

void ThreadedNetwork::set_loss_probability(double p) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  cfg_.loss_probability = p;
}

void ThreadedNetwork::set_duplicate_probability(double p) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  cfg_.duplicate_probability = p;
}

void ThreadedNetwork::send(Envelope env) {
  env.src_inc = incarnation(env.src);
  env.dst_inc = incarnation(env.dst);
  metrics_.messages_sent.add();
  metrics_.bytes_sent.add(env.bytes.size());
  if (is_down(env.dst)) {
    metrics_.messages_dropped_crashed.add();
    return;
  }
  bool lost = false;
  bool dup = false;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    // A blocked link drops everything: a partition IS sustained omission.
    lost = blocked_.contains({env.src, env.dst}) || rng_.chance(cfg_.loss_probability);
    if (!lost) dup = rng_.chance(cfg_.duplicate_probability);
  }
  if (lost) {
    metrics_.messages_lost.add();
    return;
  }
  if (dup) {
    metrics_.messages_duplicated.add();
    deliver_(env);  // copy
  }
  deliver_(std::move(env));
}

}  // namespace adgc
