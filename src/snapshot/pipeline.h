// Asynchronous snapshot pipeline: serialize → store-write (only when a
// snapshot store is configured) → summarize, off the mutator path.
//
// The paper's detector is built to tolerate stale views (§4: summarization
// is "performed, lazily and incrementally"; the IC rules reject anything the
// mutator has touched since the snapshot), so nothing but the capture itself
// has to run on the actor thread. The pipeline exploits that: the Process
// captures SnapshotData synchronously, hands it over, and keeps serving RMIs
// with the *previous* summary until the new one publishes back through an
// Env completion event.
//
// Execution model per Env:
//   * real_time() Envs (ThreadedRuntime / NodeRuntime): one lazily-started
//     background worker per process runs the stages; the completion hops
//     back to the actor thread via Env::post(). Single-in-flight with
//     coalescing — a request while one is in flight marks `pending`, and the
//     owner re-captures when the publish lands. In-flight work dies with
//     crash(): destroying the pipeline poisons the shared control block, so
//     a completion already sitting in the actor queue becomes a no-op.
//   * the deterministic simulator: the stages run inline at request time
//     (there is no real concurrency to model) and only the *publication* is
//     deferred, as a scheduled self-event after
//     ProcessConfig::snapshot_pipeline_latency_us. Traces stay a pure
//     function of (config, seed), and the model checker sees the publish
//     timer as an ordinary pending event — a new choice point where a
//     detection races a summary publish.
//
// The synchronous path (Process::take_snapshot) also funnels through
// run_now(), so both paths share one implementation of the stages and the
// stage histograms/trace events.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/config.h"
#include "src/net/transport.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_store.h"
#include "src/snapshot/summarizer.h"

namespace adgc {

class SnapshotPipeline {
 public:
  /// What one pipeline pass produced. `summary` is null only if a stage
  /// threw (serializer bug); `persisted` is false when the store write or
  /// its atomic rename-publish failed (surfaced via the
  /// snapshot_persist_failures counter and the kSnapshotPersist trace arg —
  /// the summary still publishes, the detector does not need the disk).
  struct Stages {
    std::uint64_t version = 0;
    SimTime requested_at = 0;  // Env clock at capture
    std::shared_ptr<const SummarizedGraph> summary;
    bool persisted = true;
  };

  /// Publish hop, invoked on the owning process's execution context.
  using PublishFn = std::function<void(Stages)>;

  SnapshotPipeline(ProcessId pid, const ProcessConfig& cfg, Env& env,
                   Serializer& serializer, Summarizer& summarizer,
                   SnapshotStore* store, PublishFn publish);
  /// Poisons the control block and joins the worker; a completion already
  /// queued on the actor thread then no-ops. Safe to run mid-flight (crash).
  ~SnapshotPipeline();

  SnapshotPipeline(const SnapshotPipeline&) = delete;
  SnapshotPipeline& operator=(const SnapshotPipeline&) = delete;

  /// True from submit() until the publish hop ran (or was cancelled).
  bool in_flight() const;

  /// Remembers that a snapshot was requested while one is in flight; the
  /// owner consumes this on publish and re-captures.
  void mark_pending();
  bool consume_pending();

  /// Hands one captured snapshot to the pipeline. Must not be called while
  /// in_flight() — coalesce via mark_pending() instead.
  void submit(SnapshotData snap, std::uint64_t version, SimTime requested_at);

  /// Runs the stages synchronously on the caller's thread (the legacy
  /// take_snapshot path) and returns the result for immediate adoption.
  /// Serializes and persists only when a store is configured; always
  /// summarizes `snap` itself.
  Stages run_now(const SnapshotData& snap, std::uint64_t version, SimTime requested_at);

  /// Discards any in-flight work: waits (real_time Envs) for the worker to
  /// finish its current job, drops an unstarted one, clears `pending`, and
  /// invalidates not-yet-delivered completions. Called by the synchronous
  /// snapshot path so stage state (summarizer, store) is never touched
  /// from two threads.
  void cancel_in_flight();

 private:
  /// State shared with queued completion closures and the worker. The
  /// pipeline owner sets `dead` on destruction (on the actor thread), which
  /// is exactly where completions run — so a completion observing
  /// dead==false may safely touch the pipeline object.
  struct Ctl {
    std::mutex mu;
    std::condition_variable cv;
    bool dead = false;
    bool busy = false;     // submit() .. publish/cancel
    bool working = false;  // worker executing stages right now
    bool pending = false;  // coalesced request
    bool has_job = false;  // job handed over, worker not started on it yet
    std::uint64_t gen = 0;        // submissions
    std::uint64_t cancelled = 0;  // completions at or below this are dropped
    SnapshotData job_snap;
    std::uint64_t job_version = 0;
    SimTime job_requested_at = 0;
  };

  void worker_loop();
  void finish(Stages s, std::uint64_t gen);  // publish hop body (actor thread)

  ProcessId pid_;
  const ProcessConfig& cfg_;
  Env& env_;
  Serializer& serializer_;
  Summarizer& summarizer_;
  SnapshotStore* store_;  // null when persistence is off
  PublishFn publish_;
  std::shared_ptr<Ctl> ctl_;
  std::thread worker_;  // lazily started, real_time Envs only
};

}  // namespace adgc
