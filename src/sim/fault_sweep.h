// One fault sweep for every fault the collector claims to tolerate.
//
// A run plants distributed garbage next to a ring of live sentinels: rooted
// L_p holds a remote reference to the unrooted N_{p+1}, whose survival rests
// entirely on the cross-process stub/scion pair — exactly the state a lossy,
// partitioned and crashing network tries hardest to corrupt. The timeline:
//
//   warmup     400 ms fault-free; every process snapshots the planted
//              structures
//   root drop  the planted structures become garbage
//   quiet      fault-free; owners persist the root drops before any crash
//   slices     the storm: loss, duplication and reordering (the network's
//              independent latency draws) throughout, plus per slice an
//              optional blocked link pair and the crash plan's crash
//   settle     faults lifted; the system must converge
//
// Sentinel invocations, when enabled, run in every phase except the quiet
// one. Three oracles judge the end state:
//   - sentinels: every sentinel whose keeper is up is reachable from a root
//     (global_live_set), not merely present; a kept sentinel whose keeper is
//     down for good is gone;
//   - garbage: no live process holds garbage (mc::check_no_garbage);
//   - stranded: no survivor keeps a stub toward, or a scion from, a process
//     that is down for good.
//
// crash_preset, chaos_preset and eviction_preset are the acceptance sweeps
// of docs/FAULT_MODEL.md; tests and adgc_sim run them over seeds.
//
// Also provides the adaptive-vs-fixed backoff comparison: a garbage ring
// under sustained loss, run once with the adaptive-degradation layer and
// once with fixed-interval retries, counting retry traffic for both.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"

namespace adgc::sim {

/// The garbage planted next to the sentinel ring.
enum class Plant {
  kFig3,      // the paper's Fig. 3 cycle (needs 4 processes)
  kFig3Fig4,  // Fig. 3 plus Fig. 4's pair of linked cycles (needs 6)
  kRing,      // a garbage ring with one segment on each of `procs`
};

enum class CrashPlan {
  kNone,
  /// In slice s, process (victim + s) % procs crashes at the slice start
  /// and restarts from its snapshot 50 ms later.
  kRotate,
  /// `victim` crashes at the start of the first slice and never restarts.
  kForever,
};

struct FaultSweepParams {
  std::uint64_t seed = 1;
  Plant plant = Plant::kFig3Fig4;
  std::size_t procs = 6;
  /// The storm, in force for every slice.
  double loss = 0.0;
  double dup = 0.0;
  /// Block the link pair (s, s+1) both ways for slice s.
  bool rotate_partition = false;
  CrashPlan crash = CrashPlan::kNone;
  ProcessId victim = 0;
  /// Period of the sentinel ring's kTouch invocations (0 = none). They give
  /// every process the request/reply history that suspicion feeds on.
  SimTime invoke_period_us = 0;
  /// ProcessConfig overrides for the differential legs.
  SimTime peer_death_timeout_us = 0;
  bool batching = true;
  bool snapshot_pipeline = true;
  SimTime quiet_us = 50'000;
  SimTime slice_us = 400'000;
  std::size_t slices = 6;
  /// Must exceed the largest detection backoff (detection_backoff_cap_us)
  /// so deferred candidates re-launch before the verdict.
  SimTime settle_us = 12'000'000;
  /// Snapshot stores for kRotate, removed afterwards. Empty = a directory
  /// under the system temp unique to this process id and seed.
  std::string snapshot_dir;
};

/// Four processes carry Fig. 3; each is crashed and restarted once, mid-
/// detection (crash k lands 400 + 850·k ms after the root drop).
FaultSweepParams crash_preset(std::uint64_t seed);

/// Six processes carry Fig. 3 and Fig. 4 through six slices of 10% loss,
/// 5% duplication, a rotating partition and a crash rotation.
FaultSweepParams chaos_preset(std::uint64_t seed);

/// Six processes carry a garbage ring and sentinel-ring invocations; P2
/// dies for good and the survivors must evict it within the 5 s run
/// (peer_death_timeout_us = 1 s).
FaultSweepParams eviction_preset(std::uint64_t seed);

struct FaultSweepResult {
  bool sentinels_ok = false;
  bool no_garbage = false;
  bool no_stranded = false;
  std::size_t crashes = 0;
  std::size_t recovered = 0;  // restarts that found a usable snapshot
  Metrics metrics;            // Runtime::total_metrics() at the verdict
  std::string detail;         // the first failure of each oracle

  bool ok() const { return sentinels_ok && no_garbage && no_stranded; }
};

/// Runs one sweep; deterministic in `params.seed`.
FaultSweepResult run_fault_sweep(const FaultSweepParams& params);

/// Adaptive-vs-fixed retry traffic under sustained loss. Both runs share the
/// seed, scenario and duration; only `adaptive_faults` differs.
struct BackoffComparison {
  /// Retry/probe traffic: AddScion re-sends + CDMs launched and forwarded.
  std::uint64_t adaptive_retry_messages = 0;
  std::uint64_t fixed_retry_messages = 0;
  /// All messages put on the wire.
  std::uint64_t adaptive_total_messages = 0;
  std::uint64_t fixed_total_messages = 0;

  bool adaptive_reduced() const {
    return adaptive_retry_messages < fixed_retry_messages;
  }
};

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss = 0.30,
                                         SimTime run_us = 6'000'000);

}  // namespace adgc::sim
