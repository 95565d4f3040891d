#include "src/dcda/detector.h"

#include <utility>

#include "src/common/log.h"
#include "src/dcda/cdm.h"

namespace adgc {

Detector::Detector(ProcessId pid, const ProcessConfig& cfg, Metrics& metrics, Hooks hooks)
    : pid_(pid), cfg_(cfg), metrics_(metrics), hooks_(std::move(hooks)), manager_(pid) {}

void Detector::set_snapshot(std::shared_ptr<const SummarizedGraph> snap) {
  snap_ = std::move(snap);
}

bool Detector::start_detection(RefId candidate, SimTime now) {
  if (!snap_) return false;
  if (manager_.candidate_active(candidate)) return false;
  if (manager_.in_flight() >= cfg_.max_inflight_detections) return false;
  const ScionSummary* scion = snap_->scion(candidate);
  if (!scion) return false;

  const DetectionId id = manager_.begin(candidate, now, cfg_.detection_timeout_us);
  metrics_.detections_started.add();
  obs::emit(trace_, {now, pid_, obs::EventType::kDetectionStart, 0, id.initiator,
                     id.seq, candidate});

  CdmMsg base;
  base.detection = id;
  base.candidate = candidate;
  base.hops = 0;

  // Alg_0 = {{candidate} → {}} — the candidate scion is the first dependency.
  Algebra delivered;  // nothing delivered yet: empty baseline
  Algebra alg;
  alg.source.insert({candidate, eff_ic(scion->ic)});

  const int sent = expand(base, *scion, delivered, std::move(alg));
  if (sent > 0 && hooks_.cdm_burst_end) hooks_.cdm_burst_end();
  if (sent == 0) {
    // Every branch was locally reachable, duplicate or absent: detection
    // over before it started.
    obs::emit(trace_, {now, pid_, obs::EventType::kDetectionAborted,
                       static_cast<std::uint8_t>(obs::AbortReason::kNoProgress),
                       id.initiator, id.seq, 0});
    manager_.end(id);
    return false;
  }
  ADGC_DEBUG("P" << pid_ << " started " << to_string(id) << " candidate="
                 << ref_to_string(candidate) << " branches=" << sent);
  return true;
}

bool Detector::seen_recently(const CdmMsg& msg) {
  if (cfg_.cdm_dedup_cache_size == 0) return false;
  // FNV-1a over the identifying content. The algebra sets are canonical
  // (sorted), so equal content hashes equally regardless of branch order.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(msg.detection.initiator);
  mix(msg.detection.seq);
  mix(msg.via);
  mix(msg.via_ic);
  for (const auto& e : msg.source) {
    mix(e.ref);
    mix(e.ic);
  }
  mix(0xA5A5A5A5ULL);  // set separator
  for (const auto& e : msg.target) {
    mix(e.ref);
    mix(e.ic);
  }
  if (!seen_.insert(h).second) return true;
  seen_order_.push_back(h);
  while (seen_order_.size() > cfg_.cdm_dedup_cache_size) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return false;
}

void Detector::on_cdm(const CdmMsg& msg, SimTime now) {
  if (cfg_.dcda_unsafe_ignore_ic) {
    // Planted bug: erase every invocation counter before processing, so
    // rule 3, the match conflict and the early check all trivially pass —
    // the detector behaves as if the paper's counter protection were absent.
    CdmMsg stripped = msg;
    stripped.via_ic = 0;
    for (AlgebraElem& e : stripped.source) e.ic = 0;
    for (AlgebraElem& e : stripped.target) e.ic = 0;
    on_cdm_impl(stripped, now);
    return;
  }
  on_cdm_impl(msg, now);
}

void Detector::on_cdm_impl(const CdmMsg& msg, SimTime now) {
  metrics_.cdms_received.add();
  const auto abort_event = [&](obs::AbortReason why) {
    obs::emit(trace_, {now, pid_, obs::EventType::kDetectionAborted,
                       static_cast<std::uint8_t>(why), msg.detection.initiator,
                       msg.detection.seq, msg.hops});
  };
  if (!snap_) {
    metrics_.detections_dropped_no_scion.add();
    abort_event(obs::AbortReason::kNoScion);
    return;
  }
  if (seen_recently(msg)) {
    metrics_.cdms_deduped.add();
    return;
  }
  obs::emit(trace_, {now, pid_, obs::EventType::kCdmHop, 0, msg.detection.initiator,
                     msg.detection.seq, msg.hops});
  // Rule 1: the reference the CDM travelled along must have a scion in the
  // *current* summarized snapshot.
  const ScionSummary* scion = snap_->scion(msg.via);
  if (!scion) {
    metrics_.detections_dropped_no_scion.add();
    abort_event(obs::AbortReason::kNoScion);
    return;
  }
  // Rule 3: pairwise snapshot consistency — the sender-snapshot stub IC must
  // equal our snapshot scion IC, else an invocation crossed this reference
  // between the two snapshots.
  if (eff_ic(scion->ic) != msg.via_ic) {
    metrics_.detections_aborted_ic.add();
    abort_event(obs::AbortReason::kViaIc);
    ADGC_DEBUG("P" << pid_ << " aborts (via IC) " << describe(msg));
    return;
  }

  Algebra alg = algebra_from_msg(msg);
  const MatchResult m = match(alg);
  if (m.ic_conflict) {
    // §3.2 safety rule ii: same reference with different counters in the two
    // sets — mutator raced the detection.
    metrics_.detections_aborted_ic.add();
    abort_event(obs::AbortReason::kMatchIc);
    ADGC_DEBUG("P" << pid_ << " aborts (match IC) " << describe(msg));
    return;
  }
  if (m.cycle_found()) {
    // The whole traversed CDM-Graph cancelled out: it is a closed garbage
    // structure. The empty match may surface at ANY process on the cycle —
    // in the paper's §3.1 mutually-linked example it is P5, not the
    // initiator (steps 25-26). The arrival scion is part of the proven
    // set, so this process deletes it locally; the acyclic DGC unravels
    // the rest.
    const AlgebraElem* via = alg.source.find(msg.via);
    if (via == nullptr) {
      // Malformed: the reference we arrived through must have been a
      // (now cancelled) dependency. Never act on such a CDM.
      ADGC_WARN("P" << pid_ << " ignoring inconsistent cycle-found " << describe(msg));
      return;
    }
    ADGC_INFO("P" << pid_ << " cycle found: " << describe(msg));
    obs::emit(trace_, {now, pid_, obs::EventType::kDetectionMatched, 0,
                       msg.detection.initiator, msg.detection.seq, msg.hops});
    hooks_.cycle_found(msg.detection, msg.via, via->ic);
    return;
  }

  if (msg.hops >= cfg_.cdm_hop_limit) {
    ADGC_WARN("P" << pid_ << " dropping CDM at hop limit " << describe(msg));
    abort_event(obs::AbortReason::kHopLimit);
    return;
  }

  // Proceed with CDM-Graph construction: fold our snapshot in.
  const Algebra delivered = alg;
  if (alg.source.insert({scion->ref, eff_ic(scion->ic)}) == AlgebraSet::Insert::kConflict) {
    metrics_.detections_aborted_ic.add();
    abort_event(obs::AbortReason::kMatchIc);
    return;
  }
  const int sent = expand(msg, *scion, delivered, std::move(alg));
  if (sent > 0 && hooks_.cdm_burst_end) hooks_.cdm_burst_end();
}

int Detector::expand(const CdmMsg& base, const ScionSummary& scion, const Algebra& delivered,
                     Algebra alg) {
  int sent = 0;
  for (RefId stub_ref : scion.stubs_from) {
    const StubSummary* stub = snap_->stub(stub_ref);
    if (!stub) continue;  // snapshot internally inconsistent; be conservative
    if (stub->local_reach) {
      // The reference is held by a locally reachable object: whatever lies
      // beyond it is live. Negative result along this path.
      metrics_.detections_aborted_local.add();
      continue;
    }
    Algebra derived = alg;
    bool conflict = false;
    // Extra dependencies: every other scion converging on this stub must be
    // resolved before a cycle may be declared (§3.1 step 5).
    for (RefId dep : stub->scions_to) {
      const ScionSummary* dep_scion = snap_->scion(dep);
      if (!dep_scion) continue;
      if (derived.source.insert({dep, eff_ic(dep_scion->ic)}) ==
          AlgebraSet::Insert::kConflict) {
        conflict = true;
        break;
      }
    }
    if (!conflict && derived.target.insert({stub_ref, eff_ic(stub->ic)}) ==
                         AlgebraSet::Insert::kConflict) {
      conflict = true;
    }
    if (conflict) {
      metrics_.detections_aborted_ic.add();
      continue;
    }
    if (derived == delivered) {
      // The derivation adds no information: this branch already traced that
      // sub-cycle. Terminate it (ensures termination on mutually-linked
      // cycles, §3.1 step 15).
      metrics_.detections_dropped_dup.add();
      continue;
    }
    if (match(derived).ic_conflict) {
      // §3.2 optimization: the algebra we are about to send already carries
      // an unmatched counter pair — the detection is doomed; abort here
      // rather than at the next hop.
      metrics_.detections_aborted_ic.add();
      continue;
    }
    CdmMsg out = base;
    out.via = stub_ref;
    out.via_ic = eff_ic(stub->ic);
    out.hops = base.hops + 1;
    algebra_to_msg(derived, out);
    metrics_.cdms_sent.add();
    metrics_.cdm_bytes.add(encoded_size(out));
    hooks_.send_cdm(stub->target.owner, out);
    ++sent;
  }
  return sent;
}

std::vector<DetectionManager::Record> Detector::abort_for_crash(ProcessId crashed,
                                                                SimTime now) {
  std::vector<DetectionManager::Record> drained = manager_.drain();
  for (const auto& rec : drained) {
    metrics_.detections_aborted_crash.add();
    metrics_.detection_lifetime_us.record(now - rec.started_at);
    obs::emit(trace_, {now, pid_, obs::EventType::kDetectionAborted,
                       static_cast<std::uint8_t>(obs::AbortReason::kCrash),
                       rec.id.initiator, rec.id.seq, crashed});
    ADGC_DEBUG("P" << pid_ << " aborts " << to_string(rec.id) << " (P" << crashed
                   << " crashed)");
  }
  return drained;
}

std::vector<DetectionManager::Record> Detector::expire(SimTime now) {
  std::vector<DetectionManager::Record> expired = manager_.expire(now);
  for (const auto& rec : expired) {
    metrics_.detections_timed_out.add();
    metrics_.detection_lifetime_us.record(now - rec.started_at);
    obs::emit(trace_, {now, pid_, obs::EventType::kDetectionExpired, 0,
                       rec.id.initiator, rec.id.seq, now - rec.started_at});
    ADGC_DEBUG("P" << pid_ << " detection timed out: " << to_string(rec.id));
  }
  return expired;
}

void Detector::finish(DetectionId id, SimTime now) {
  if (const DetectionManager::Record* rec = manager_.find(id)) {
    metrics_.detection_lifetime_us.record(now - rec->started_at);
  }
  manager_.end(id);
}

}  // namespace adgc
