// The Distributed Cycle Detection Algorithm engine — the paper's core
// contribution (§2, §3).
//
// One Detector per process. It works exclusively on the process's current
// *summarized snapshot* (never the live heap), exchanges CDMs with the
// detectors of other processes, and reports a proven cycle back to its
// process through a hook so the live scion can be revalidated and deleted.
//
// Statelessness: only the initiator of a detection holds state about it
// (the DetectionManager). Intermediate processes just transform CDMs.
//
// Termination/abort rules implemented (with the paper's numbering):
//  rule 1  — CDM whose `via` reference has no scion in the current snapshot
//            is discarded (snapshot not current enough / scion gone);
//  rule 3  — snapshot stub IC (carried in the CDM) differing from the
//            snapshot scion IC aborts the branch (mutation detected);
//  §3 §3.1 — a followed stub with Local.Reach terminates that branch
//            negatively; a derivation equal to the delivered algebra is
//            dropped (loop/branch termination, steps 15 of §3.1);
//  §3.2    — algebra matching with unequal ICs for one RefId aborts.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/dcda/algebra.h"
#include "src/dcda/detection_manager.h"
#include "src/obs/trace.h"
#include "src/snapshot/snapshot.h"

namespace adgc {

class Detector {
 public:
  struct Hooks {
    /// Sends a CDM to the owner process of the stub being followed.
    std::function<void(ProcessId dst, const CdmMsg& msg)> send_cdm;
    /// A detection proved a cycle at this process: revalidate the live
    /// scion `victim` (exists, IC == expected_ic, target not root-reachable)
    /// and delete it. `victim` is the CDM's arrival scion — the empty match
    /// may surface at any process of the cycle (paper §3.1 steps 25-26),
    /// not only at the initiator.
    std::function<void(DetectionId id, RefId victim, std::uint64_t expected_ic)>
        cycle_found;
    /// Called after a complete CDM fan-out (a detection launch or the
    /// expansion of one delivered CDM) so the process can flush its
    /// control-message batcher: CDMs emitted within one burst coalesce into
    /// per-peer batches, but never wait out the batch deadline — batching
    /// must not add per-hop detection latency. Optional.
    std::function<void()> cdm_burst_end;
  };

  Detector(ProcessId pid, const ProcessConfig& cfg, Metrics& metrics, Hooks hooks);

  /// Installs a fresh summarized snapshot (atomically replaces the old one).
  void set_snapshot(std::shared_ptr<const SummarizedGraph> snap);
  const SummarizedGraph* snapshot() const { return snap_.get(); }

  /// Tries to start one detection for the given candidate scion.
  /// Returns true if CDMs were actually sent.
  bool start_detection(RefId candidate, SimTime now);

  /// Handles a delivered CDM.
  void on_cdm(const CdmMsg& msg, SimTime now);

  /// Expires timed-out detections (message-loss tolerance). Returns the
  /// expired records so the process can back off re-launching their
  /// candidates (a timeout usually means a lossy or partitioned link).
  std::vector<DetectionManager::Record> expire(SimTime now);

  /// A peer process crashed (or was evicted): aborts every in-flight
  /// detection this process initiated. Any of them may have a CDM touching
  /// the crashed process, and after its restart the restored tables no
  /// longer match the algebra those CDMs carry — the same reasoning as the
  /// paper's IC-mismatch abort. Surviving candidates are retried by the
  /// periodic detection scan; the drained records are returned so the
  /// eviction path can re-quarantine candidates under the relaunch backoff.
  std::vector<DetectionManager::Record> abort_for_crash(ProcessId crashed, SimTime now);

  /// Marks a detection finished at the initiator (cycle acted upon).
  /// Records the detection's lifetime into the metrics histogram.
  void finish(DetectionId id, SimTime now);

  /// Installs the structured-trace ring (Env::trace(); nullptr = disabled).
  void set_trace(obs::TraceRing* ring) { trace_ = ring; }

  DetectionManager& manager() { return manager_; }
  const DetectionManager& manager() const { return manager_; }

 private:
  void on_cdm_impl(const CdmMsg& msg, SimTime now);

  /// The invocation counter as the detector sees it. Under the test-only
  /// `dcda_unsafe_ignore_ic` planted bug every counter collapses to zero,
  /// which disables all IC-based race protection at once.
  std::uint64_t eff_ic(std::uint64_t ic) const {
    return cfg_.dcda_unsafe_ignore_ic ? 0 : ic;
  }

  /// Follows every viable stub out of `scion`, deriving and sending CDMs.
  /// `delivered` is the algebra as it arrived (dup-check baseline); `alg`
  /// additionally contains the arrival scion. Returns #CDMs sent.
  int expand(const CdmMsg& base, const ScionSummary& scion, const Algebra& delivered,
             Algebra alg);

  /// Returns true if this exact CDM content was processed recently
  /// (bounded FIFO cache; duplicates are safe to drop).
  bool seen_recently(const CdmMsg& msg);

  ProcessId pid_;
  const ProcessConfig& cfg_;
  Metrics& metrics_;
  obs::TraceRing* trace_ = nullptr;
  Hooks hooks_;
  DetectionManager manager_;
  std::shared_ptr<const SummarizedGraph> snap_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> seen_order_;
};

}  // namespace adgc
