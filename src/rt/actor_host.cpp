#include "src/rt/actor_host.h"

#include <algorithm>
#include <chrono>
#include <future>

namespace adgc {

namespace {
/// The loop's wait when no timer is queued, and its longest wait otherwise.
constexpr SimTime kIdlePollUs = 10'000;
}  // namespace

ActorHost::ActorHost(ProcessId pid, std::uint64_t seed, std::size_t trace_capacity,
                     Wiring wiring)
    : pid_(pid), wiring_(std::move(wiring)), rng_(seed), trace_(trace_capacity) {}

ActorHost::~ActorHost() {
  stop();
  proc_.reset();
}

SimTime ActorHost::now() const {
  return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count());
}

void ActorHost::send(ProcessId dst, const MessagePayload& msg) {
  send_encoded(dst, encode_message(msg));
}

void ActorHost::send_encoded(ProcessId dst, std::vector<std::byte> bytes) {
  Envelope env;
  env.src = pid_;
  env.dst = dst;
  env.bytes = std::move(bytes);
  wiring_.send(std::move(env));
}

void ActorHost::schedule(SimTime delay, std::function<void()> fn) {
  timers_.push(Timer{now() + delay, next_timer_seq_++, std::move(fn)});
}

void ActorHost::post(std::function<void()> fn) { enqueue(std::move(fn)); }

void ActorHost::post_sync(const std::function<void()>& fn) {
  if (!running_.load(std::memory_order_acquire)) return fn();
  std::promise<void> done;
  auto fut = done.get_future();
  post([&fn, &done] {
    fn();
    done.set_value();
  });
  fut.wait();
}

void ActorHost::deliver(Envelope env) { enqueue(std::move(env)); }

void ActorHost::enqueue(Item item) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    mailbox_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void ActorHost::set_process(std::unique_ptr<Process> proc) {
  timers_ = {};
  proc_ = std::move(proc);
}

bool ActorHost::recover() {
  const bool recovered = proc_->recover_from_store();
  metrics_.process_restarts.add();
  if (recovered) metrics_.restarts_recovered.add();
  obs::emit(trace(), {now(), pid_, obs::EventType::kRestart, 0, pid_, proc_->incarnation(),
                      recovered ? 1u : 0u});
  return recovered;
}

void ActorHost::run(std::function<void(Process&)> fn) {
  // Resolve the process when the closure runs: a crash or restart may
  // replace it in between.
  post([this, fn = std::move(fn)] {
    if (proc_) fn(*proc_);
  });
}

void ActorHost::run_sync(const std::function<void(Process&)>& fn) {
  post_sync([this, &fn] {
    if (proc_) fn(*proc_);
  });
}

void ActorHost::start() {
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  run([](Process& p) { p.start(); });
}

void ActorHost::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

SimTime ActorHost::pump_timers() {
  const SimTime now_us = now();
  while (!timers_.empty() && timers_.top().deadline <= now_us) {
    // Copy out before pop: the callback may schedule more timers.
    auto fn = timers_.top().fn;
    timers_.pop();
    fn();
  }
  if (timers_.empty()) return kIdlePollUs;
  const SimTime next = timers_.top().deadline;
  const SimTime cur = now();
  return next > cur ? std::min(next - cur, kIdlePollUs) : 0;
}

void ActorHost::loop() {
  while (true) {
    const std::chrono::microseconds wait(pump_timers());
    Item item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, wait, [this] { return !mailbox_.empty() || stop_; });
      if (stop_) return;
      if (mailbox_.empty()) continue;
      item = std::move(mailbox_.front());
      mailbox_.pop_front();
    }
    if (const auto* env = std::get_if<Envelope>(&item)) {
      handle(*env);
    } else {
      std::get<std::function<void()>>(item)();
    }
  }
}

void ActorHost::handle(const Envelope& env) {
  if (!proc_) {
    metrics_.messages_dropped_crashed.add();
    return;
  }
  if (wiring_.stale(env)) {
    metrics_.messages_stale_incarnation.add();
    return;
  }
  metrics_.messages_delivered.add();
  proc_->deliver(env);
}

}  // namespace adgc
