#include "src/snapshot/pipeline.h"

#include <chrono>
#include <exception>
#include <utility>

#include "src/common/log.h"

namespace adgc {

namespace {

std::uint64_t wall_us_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

SnapshotPipeline::SnapshotPipeline(ProcessId pid, const ProcessConfig& cfg, Env& env,
                                   Serializer& serializer, Summarizer& summarizer,
                                   SnapshotStore* store, PublishFn publish)
    : pid_(pid),
      cfg_(cfg),
      env_(env),
      serializer_(serializer),
      summarizer_(summarizer),
      store_(store),
      publish_(std::move(publish)),
      ctl_(std::make_shared<Ctl>()) {}

SnapshotPipeline::~SnapshotPipeline() {
  {
    std::lock_guard<std::mutex> lk(ctl_->mu);
    ctl_->dead = true;
    ctl_->cancelled = ctl_->gen;
    ctl_->has_job = false;
    ctl_->job_snap = {};
  }
  ctl_->cv.notify_all();
  if (worker_.joinable()) worker_.join();
}

bool SnapshotPipeline::in_flight() const {
  std::lock_guard<std::mutex> lk(ctl_->mu);
  return ctl_->busy;
}

void SnapshotPipeline::mark_pending() {
  std::lock_guard<std::mutex> lk(ctl_->mu);
  ctl_->pending = true;
}

bool SnapshotPipeline::consume_pending() {
  std::lock_guard<std::mutex> lk(ctl_->mu);
  return std::exchange(ctl_->pending, false);
}

SnapshotPipeline::Stages SnapshotPipeline::run_now(const SnapshotData& snap,
                                                   std::uint64_t version,
                                                   SimTime requested_at) {
  Stages out;
  out.version = version;
  out.requested_at = requested_at;
  Metrics& m = env_.metrics();
  if (store_) {
    const auto wall0 = std::chrono::steady_clock::now();
    const SimTime vt0 = env_.now();
    const std::vector<std::byte> bytes = serializer_.serialize(snap);
    m.snapshot_bytes.add(bytes.size());
    try {
      store_->write(pid_, version, bytes);
    } catch (const std::exception& e) {
      // Surface, don't abort: the summary is still valid for detection,
      // only durability suffered (recovery falls back to an older version).
      out.persisted = false;
      m.snapshot_persist_failures.add();
      ADGC_ERROR("P" << pid_ << " snapshot v" << version
                     << " persist failed: " << e.what());
    }
    m.snapshot_persist_us.record(wall_us_since(wall0));
    obs::emit(env_.trace(),
              {env_.now(), pid_, obs::EventType::kSnapshotPersist,
               static_cast<std::uint8_t>(out.persisted ? 0 : 1), 0, version,
               static_cast<std::uint64_t>(env_.now() - vt0)});
  }
  const auto wall1 = std::chrono::steady_clock::now();
  const SimTime vt1 = env_.now();
  SummarizedGraph sum = summarizer_.summarize(snap);
  sum.version = version;
  m.snapshot_summarize_us.record(wall_us_since(wall1));
  obs::emit(env_.trace(),
            {env_.now(), pid_, obs::EventType::kSnapshotSummarize, 0, 0, version,
             static_cast<std::uint64_t>(env_.now() - vt1)});
  out.summary = std::make_shared<const SummarizedGraph>(std::move(sum));
  return out;
}

void SnapshotPipeline::submit(SnapshotData snap, std::uint64_t version,
                              SimTime requested_at) {
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(ctl_->mu);
    ctl_->busy = true;
    gen = ++ctl_->gen;
  }
  if (!env_.real_time()) {
    // Deterministic simulator: the stages run inline (no concurrency to
    // model); only the publication is deferred, as a self-event the sim —
    // and the model checker's explicit schedule — orders like any other.
    Stages s = run_now(snap, version, requested_at);
    auto ctl = ctl_;
    env_.schedule(cfg_.snapshot_pipeline_latency_us,
                  [self = this, ctl, s = std::move(s), gen]() mutable {
                    {
                      std::lock_guard<std::mutex> lk(ctl->mu);
                      if (ctl->dead || gen <= ctl->cancelled) return;
                    }
                    self->finish(std::move(s), gen);
                  });
    return;
  }
  {
    std::lock_guard<std::mutex> lk(ctl_->mu);
    ctl_->job_snap = std::move(snap);
    ctl_->job_version = version;
    ctl_->job_requested_at = requested_at;
    ctl_->has_job = true;
  }
  if (!worker_.joinable()) worker_ = std::thread([this] { worker_loop(); });
  ctl_->cv.notify_all();
}

void SnapshotPipeline::worker_loop() {
  for (;;) {
    SnapshotData snap;
    std::uint64_t version = 0;
    SimTime requested_at = 0;
    {
      std::unique_lock<std::mutex> lk(ctl_->mu);
      ctl_->cv.wait(lk, [&] { return ctl_->dead || ctl_->has_job; });
      if (ctl_->dead) return;
      snap = std::move(ctl_->job_snap);
      ctl_->job_snap = {};
      version = ctl_->job_version;
      requested_at = ctl_->job_requested_at;
      ctl_->has_job = false;
      ctl_->working = true;
    }
    Stages s;
    try {
      s = run_now(snap, version, requested_at);
    } catch (const std::exception& e) {
      // A stage threw past run_now's own handling (serializer bug): report
      // and deliver an empty result so the in-flight state still clears.
      ADGC_ERROR("P" << pid_ << " snapshot v" << version
                     << " pipeline stage failed: " << e.what());
      s.version = version;
      s.requested_at = requested_at;
      s.persisted = false;
    }
    std::uint64_t gen = 0;
    bool dead = false;
    {
      std::lock_guard<std::mutex> lk(ctl_->mu);
      ctl_->working = false;
      gen = ctl_->gen;
      dead = ctl_->dead;
    }
    ctl_->cv.notify_all();
    if (dead) return;
    auto ctl = ctl_;
    env_.post([self = this, ctl, s = std::move(s), gen]() mutable {
      {
        std::lock_guard<std::mutex> lk(ctl->mu);
        // `dead` flips only on the actor thread (pipeline destruction), and
        // this closure runs on the actor thread — observing dead==false
        // therefore proves `self` is still alive.
        if (ctl->dead || gen <= ctl->cancelled) return;
      }
      self->finish(std::move(s), gen);
    });
  }
}

void SnapshotPipeline::finish(Stages s, std::uint64_t gen) {
  {
    std::lock_guard<std::mutex> lk(ctl_->mu);
    if (gen <= ctl_->cancelled) return;
    ctl_->busy = false;
  }
  publish_(std::move(s));
}

void SnapshotPipeline::cancel_in_flight() {
  std::unique_lock<std::mutex> lk(ctl_->mu);
  ctl_->cancelled = ctl_->gen;
  ctl_->pending = false;
  ctl_->has_job = false;
  ctl_->job_snap = {};
  // Let a mid-stage worker finish its pass (bounded); its completion is
  // already invalidated above. The wait also serializes summarizer/store
  // access for the synchronous caller.
  ctl_->cv.wait(lk, [&] { return !ctl_->working; });
  ctl_->busy = false;
}

}  // namespace adgc
