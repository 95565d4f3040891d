// Wall-clock execution context of one Process: its Env and its OS thread.
//
// A Process is an actor; on the real runtimes each one runs on a thread of
// its own. ActorHost is that thread and everything the Process needs from
// it: the wall clock, the timer heap, a mailbox of inbound envelopes and
// posted closures that any thread may fill, and the loop that fires due
// timers and delivers or drops each envelope. ThreadedRuntime runs one host
// per process over the in-memory ThreadedNetwork; NodeRuntime runs one over
// TcpTransport. A runtime supplies only how an outbound envelope is stamped
// and sent and which inbound ones are stale (Wiring).
//
// Only the loop thread touches the Process, its timers and its Rng, except
// before start() and after stop(), when no loop runs and the caller's
// thread may.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "src/net/transport.h"
#include "src/rt/process.h"

namespace adgc {

class ActorHost final : public Env {
 public:
  struct Wiring {
    /// Stamps an outbound envelope (src, dst and bytes are set) and sends
    /// it. Runs on the loop thread.
    std::function<void(Envelope)> send;
    /// True for an inbound envelope stamped with a dead incarnation of
    /// either end; it is counted and dropped. Runs on the loop thread.
    std::function<bool(const Envelope&)> stale;
  };

  ActorHost(ProcessId pid, std::uint64_t seed, std::size_t trace_capacity, Wiring wiring);
  /// Stops the loop, then destroys the Process before the mailbox its
  /// snapshot worker posts completions into.
  ~ActorHost() override;

  ActorHost(const ActorHost&) = delete;
  ActorHost& operator=(const ActorHost&) = delete;

  SimTime now() const override;
  void send(ProcessId dst, const MessagePayload& msg) override;
  void send_encoded(ProcessId dst, std::vector<std::byte> bytes) override;
  void schedule(SimTime delay, std::function<void()> fn) override;
  /// Thread-safe: queues `fn` for the loop thread.
  void post(std::function<void()> fn) override;
  /// Same, but returns once `fn` ran. Runs it inline when no loop runs.
  /// Must not be called from the loop thread.
  void post_sync(const std::function<void()>& fn);
  bool real_time() const override { return true; }
  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }
  obs::TraceRing* trace() override { return trace_.enabled() ? &trace_ : nullptr; }

  /// Thread-safe: queues an inbound envelope for the process.
  void deliver(Envelope env);

  /// The hosted process; null while crashed or before one is installed.
  Process* process() { return proc_.get(); }
  /// Installs `proc` (null crashes the host), destroying the previous
  /// process and every pending timer, whose closures capture it.
  void set_process(std::unique_ptr<Process> proc);
  /// Recovers the installed process from its snapshot store, counting and
  /// tracing the restart. Returns true if a snapshot was recovered.
  bool recover();

  /// Thread-safe: runs fn(process) on the loop thread; skipped when no
  /// process is installed by then.
  void run(std::function<void(Process&)> fn);
  /// The same through post_sync().
  void run_sync(const std::function<void(Process&)>& fn);

  /// Spawns the loop thread, which inherits the caller's CPU mask, and
  /// starts the installed process's periodic collectors on it. Once.
  void start();
  /// Joins the loop thread; work still queued is dropped. Idempotent.
  void stop();

 private:
  struct Timer {
    SimTime deadline;
    std::uint64_t seq;
    std::function<void()> fn;
    // priority_queue is a max-heap: the earliest (deadline, seq) ranks highest.
    bool operator<(const Timer& o) const {
      return std::tie(o.deadline, o.seq) < std::tie(deadline, seq);
    }
  };
  using Item = std::variant<Envelope, std::function<void()>>;

  void loop();
  void enqueue(Item item);
  /// Fires every due timer; returns microseconds until the next one, at
  /// most the idle poll interval.
  SimTime pump_timers();
  void handle(const Envelope& env);

  const ProcessId pid_;
  const Wiring wiring_;
  Rng rng_;
  Metrics metrics_;
  obs::TraceRing trace_;
  std::priority_queue<Timer> timers_;
  std::uint64_t next_timer_seq_ = 0;

  std::mutex mu_;  // guards mailbox_ and stop_
  std::condition_variable cv_;
  std::deque<Item> mailbox_;
  bool stop_ = false;

  std::unique_ptr<Process> proc_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace adgc
