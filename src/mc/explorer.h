// The model checker's driver: one Explorer turns a (scenario, strategy,
// bounds) triple into a bounded search over schedules.
//
// Every schedule re-executes from scratch (stateless model checking): a
// fresh Runtime in explicit-schedule mode, the scenario graph rebuilt, and
// then a loop of up to `max_steps` choice points. At each point the Explorer
// enumerates the enabled decisions in a fixed deterministic order —
//   script step | pending deliveries | per-process lgc/snapshot/scan |
//   message drops (loss budget) | crash/restart (crash budget)
// — asks the strategy to pick, applies the decision, and runs the safety
// oracle. Schedules that took no fault decisions additionally settle to
// quiescence and run the liveness/completeness oracles.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/common/metrics.h"
#include "src/mc/oracles.h"
#include "src/mc/scenario.h"
#include "src/mc/strategy.h"
#include "src/mc/trace.h"

namespace adgc::mc {

struct ExplorerOptions {
  ScenarioKind scenario = ScenarioKind::kFig3;
  std::uint64_t seed = 1;
  std::uint32_t max_steps = 60;        // decisions per schedule
  std::uint64_t max_schedules = 10'000;
  std::uint64_t time_budget_ms = 0;    // wall clock; 0 = unlimited
  std::uint32_t loss_budget = 0;       // kDrop decisions allowed per schedule
  std::uint32_t crash_budget = 0;      // kCrash decisions allowed per schedule
  std::uint32_t collector_budget = 3;  // per process *and* per collector kind
  std::size_t max_choices = 64;        // enumeration cap per step
  bool check_liveness = true;
  std::uint32_t settle_rounds = 8;
  bool stop_on_violation = true;
  bool unsafe_no_ic = false;           // planted-bug knob (self-test only)
  // Non-zero turns the snapshot pipeline ON for explored schedules: kSnapshot
  // decisions request a snapshot whose summary publishes via a timer this
  // many sim-µs later, making the publish race detection as an ordinary
  // pending-event choice point. 0 (default) keeps snapshots synchronous so
  // existing corpora replay unchanged.
  std::uint32_t snapshot_pipeline_latency_us = 0;
};

/// What one executed schedule produced.
struct ScheduleOutcome {
  std::optional<std::string> violation;
  Trace trace;            // the decisions actually taken, replayable
  std::size_t steps = 0;  // == trace.decisions.size()
  Metrics metrics;        // aggregate runtime counters at schedule end
};

struct ExploreResult {
  std::uint64_t schedules = 0;
  std::uint64_t total_decisions = 0;
  bool exhausted = false;        // strategy ran out of schedules within bounds
  bool hit_time_budget = false;
  std::optional<ScheduleOutcome> failure;  // first violating schedule

  // Accumulated protocol activity across all schedules (search health:
  // a search that never starts a detection is not testing the DCDA).
  std::uint64_t detections_started = 0;
  std::uint64_t cycles_collected = 0;
  std::uint64_t detections_aborted_ic = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t peers_evicted = 0;
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions opts) : opts_(std::move(opts)) {}

  /// Runs schedules driven by `strategy` until it is exhausted or a budget
  /// (schedules, wall clock) is hit — or a violation is found with
  /// stop_on_violation set.
  ExploreResult explore(ScheduleStrategy& strategy);

  /// Runs exactly one schedule (begin/end_schedule included).
  ScheduleOutcome run_one(ScheduleStrategy& strategy);

 private:
  ScheduleOutcome run_schedule(ScheduleStrategy& strategy);

  ExplorerOptions opts_;
};

/// Re-executes a recorded trace: options (scenario, seed, bounds, knob) are
/// reconstructed from the trace header, fault budgets from its decisions.
ScheduleOutcome replay_trace(const Trace& trace);

}  // namespace adgc::mc
