// Environment a Process runs against.
//
// A Process is an actor: all of its state is confined to one logical thread
// of execution. Everything it needs from the outside world — the clock,
// message sending, timers, randomness — comes through Env. The deterministic
// simulator (rt/runtime.h) implements it in simulated time; ActorHost
// (rt/actor_host.h), which the threaded and the TCP runtime run each process
// in, implements it on the wall clock and an OS thread.
#pragma once

#include <functional>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace adgc {

class Env {
 public:
  virtual ~Env() = default;

  /// Current time in microseconds (simulated or wall-clock).
  virtual SimTime now() const = 0;

  /// Sends a payload from this process to `dst`. Asynchronous, may be lost,
  /// duplicated or reordered depending on the network configuration.
  virtual void send(ProcessId dst, const MessagePayload& msg) = 0;

  /// Sends an already-encoded payload (the batcher's flush path: the batch
  /// was serialized into one contiguous buffer, re-encoding it would defeat
  /// the point). The default decodes and falls back to send() so bare-bones
  /// Env implementations (test fakes) stay correct; ActorHost overrides it
  /// to move the buffer straight into the Envelope.
  virtual void send_encoded(ProcessId dst, std::vector<std::byte> bytes) {
    send(dst, decode_message(bytes));
  }

  /// Runs `fn` on this process's execution context after `delay`.
  /// Timers fire at-least-once, in time order w.r.t. other local events.
  /// Must be called from the process's own execution context.
  virtual void schedule(SimTime delay, std::function<void()> fn) = 0;

  /// Enqueues `fn` onto this process's execution context. Unlike schedule(),
  /// callable from any thread — the completion channel for background work
  /// (the snapshot pipeline's publish hop). The default routes through
  /// schedule(0, ...), which is correct for single-threaded Envs (the
  /// deterministic simulator, test fakes); ActorHost overrides it with its
  /// thread-safe mailbox.
  virtual void post(std::function<void()> fn) { schedule(0, std::move(fn)); }

  /// True when this Env is backed by real OS threads: heavy work may be
  /// offloaded to a background worker and completions arrive via post().
  /// False in the deterministic simulator, where offloaded work runs inline
  /// and only its completion is deferred (a scheduled self-event after
  /// ProcessConfig::snapshot_pipeline_latency_us).
  virtual bool real_time() const { return false; }

  /// Deterministic per-process random stream.
  virtual Rng& rng() = 0;

  /// This process's metric counters.
  virtual Metrics& metrics() = 0;

  /// This process's structured-event trace ring, or nullptr when tracing is
  /// disabled (obs::emit is null-safe, so recording sites never branch).
  virtual obs::TraceRing* trace() { return nullptr; }
};

}  // namespace adgc
