// Detector unit tests: a single Detector instance driven with hand-built
// snapshots and CDMs, with hooks captured in-memory. Exercises every
// termination/abort rule in isolation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/dcda/detector.h"

namespace adgc {
namespace {

struct Capture {
  struct Sent {
    ProcessId dst;
    CdmMsg msg;
  };
  std::vector<Sent> sent;
  std::vector<std::pair<RefId, std::uint64_t>> cycles;  // (candidate, ic)
};

class DetectorUnit : public ::testing::Test {
 protected:
  DetectorUnit() {
    cfg.detection_timeout_us = 1000;
    cfg.cdm_hop_limit = 16;
    Detector::Hooks hooks;
    hooks.send_cdm = [this](ProcessId dst, const CdmMsg& msg) {
      cap.sent.push_back({dst, msg});
    };
    hooks.cycle_found = [this](DetectionId, RefId c, std::uint64_t ic) {
      cap.cycles.emplace_back(c, ic);
    };
    det = std::make_unique<Detector>(/*pid=*/0, cfg, metrics, hooks);
  }

  // Installs a snapshot with one scion (ref S) leading to stubs.
  void install(std::vector<ScionSummary> scions, std::vector<StubSummary> stubs) {
    auto snap = std::make_shared<SummarizedGraph>();
    snap->pid = 0;
    for (auto& s : scions) snap->scions.emplace(s.ref, std::move(s));
    for (auto& s : stubs) snap->stubs.emplace(s.ref, std::move(s));
    det->set_snapshot(std::move(snap));
  }

  ProcessConfig cfg;
  Metrics metrics;
  Capture cap;
  std::unique_ptr<Detector> det;

  const RefId S = make_ref_id(0, 1);   // scion at this process
  const RefId T = make_ref_id(5, 2);   // outgoing stub
  const RefId T2 = make_ref_id(5, 3);  // second outgoing stub
};

TEST_F(DetectorUnit, StartWithoutSnapshotFails) {
  EXPECT_FALSE(det->start_detection(S, 0));
  EXPECT_EQ(metrics.detections_started.get(), 0u);
}

TEST_F(DetectorUnit, StartUnknownScionFails) {
  install({}, {});
  EXPECT_FALSE(det->start_detection(S, 0));
}

TEST_F(DetectorUnit, StartSendsCdmPerViableStub) {
  install({{S, /*ic=*/3, /*holder=*/7, /*target=*/1, {T, T2}}},
          {{T, 1, ObjectId{2, 1}, false, {S}}, {T2, 2, ObjectId{3, 1}, false, {S}}});
  EXPECT_TRUE(det->start_detection(S, 0));
  ASSERT_EQ(cap.sent.size(), 2u);
  EXPECT_EQ(cap.sent[0].dst, 2u);
  EXPECT_EQ(cap.sent[1].dst, 3u);
  // Alg_1 = {{S} → {T}} with snapshot ICs, via = the stub followed.
  const CdmMsg& m = cap.sent[0].msg;
  EXPECT_EQ(m.candidate, S);
  EXPECT_EQ(m.via, T);
  EXPECT_EQ(m.via_ic, 1u);
  EXPECT_EQ(m.hops, 1u);
  ASSERT_EQ(m.source.size(), 1u);
  EXPECT_EQ(m.source[0].ref, S);
  EXPECT_EQ(m.source[0].ic, 3u);
  ASSERT_EQ(m.target.size(), 1u);
  EXPECT_EQ(m.target[0].ref, T);
}

TEST_F(DetectorUnit, CdmBytesCountsEncodedSize) {
  install({{S, 3, 7, 1, {T, T2}}},
          {{T, 1, ObjectId{2, 1}, false, {S}}, {T2, 300, ObjectId{3, 1}, false, {S}}});
  ASSERT_TRUE(det->start_detection(S, 0));
  ASSERT_EQ(cap.sent.size(), 2u);
  std::uint64_t bytes = 0;
  for (const auto& s : cap.sent) bytes += encode_message(MessagePayload{s.msg}).size();
  EXPECT_EQ(metrics.cdm_bytes.get(), bytes);
}

TEST_F(DetectorUnit, LocallyReachableStubTerminatesBranch) {
  install({{S, 0, 7, 1, {T, T2}}},
          {{T, 0, ObjectId{2, 1}, /*local_reach=*/true, {S}},
           {T2, 0, ObjectId{3, 1}, false, {S}}});
  EXPECT_TRUE(det->start_detection(S, 0));
  EXPECT_EQ(cap.sent.size(), 1u);  // only T2
  EXPECT_EQ(metrics.detections_aborted_local.get(), 1u);
}

TEST_F(DetectorUnit, AllBranchesLocalEndsDetection) {
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, true, {S}}});
  EXPECT_FALSE(det->start_detection(S, 0));
  EXPECT_EQ(det->manager().in_flight(), 0u);
}

TEST_F(DetectorUnit, DuplicateCandidateRefused) {
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  EXPECT_TRUE(det->start_detection(S, 0));
  EXPECT_FALSE(det->start_detection(S, 0));
  EXPECT_EQ(metrics.detections_started.get(), 1u);
}

TEST_F(DetectorUnit, CdmForUnknownScionDropped) {
  install({}, {});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;  // no such scion in snapshot
  det->on_cdm(msg, 0);
  EXPECT_EQ(metrics.detections_dropped_no_scion.get(), 1u);
  EXPECT_TRUE(cap.sent.empty());
}

TEST_F(DetectorUnit, CdmViaIcMismatchAborts) {
  install({{S, /*ic=*/4, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 3;  // stale stub-side counter
  msg.source = {{make_ref_id(3, 9), 0}};
  msg.target = {{S, 3}};
  det->on_cdm(msg, 0);
  EXPECT_EQ(metrics.detections_aborted_ic.get(), 1u);
  EXPECT_TRUE(cap.sent.empty());
}

TEST_F(DetectorUnit, MatchIcConflictAborts) {
  install({{S, 4, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 4;
  // Same ref in both sets with different ICs.
  msg.source = {{make_ref_id(3, 9), 1}};
  msg.target = {{make_ref_id(3, 9), 2}, {S, 4}};
  det->on_cdm(msg, 0);
  EXPECT_EQ(metrics.detections_aborted_ic.get(), 1u);
}

TEST_F(DetectorUnit, CycleFoundInvokesHookWithCandidateIc) {
  install({{S, 4, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  // Simulate the CDM coming home: source and target cancel entirely.
  CdmMsg msg;
  msg.detection = {0, 1};  // we are pid 0 == initiator
  msg.candidate = S;
  msg.via = S;
  msg.via_ic = 4;
  msg.source = {{S, 4}, {T, 9}};
  msg.target = {{S, 4}, {T, 9}};
  det->on_cdm(msg, 0);
  ASSERT_EQ(cap.cycles.size(), 1u);
  EXPECT_EQ(cap.cycles[0].first, S);
  EXPECT_EQ(cap.cycles[0].second, 4u);
}

TEST_F(DetectorUnit, CycleFoundAtNonInitiatorActsOnArrivalScion) {
  // §3.1 steps 25-26: the empty match may surface away from the initiator;
  // the receiving process deletes its own arrival scion.
  install({{S, 4, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {9, 1};  // initiated elsewhere
  msg.candidate = make_ref_id(9, 5);
  msg.via = S;
  msg.via_ic = 4;
  msg.source = {{make_ref_id(9, 5), 1}, {S, 4}, {T, 9}};
  msg.target = {{make_ref_id(9, 5), 1}, {S, 4}, {T, 9}};
  det->on_cdm(msg, 0);
  ASSERT_EQ(cap.cycles.size(), 1u);
  EXPECT_EQ(cap.cycles[0].first, S);
  EXPECT_EQ(cap.cycles[0].second, 4u);
}

TEST_F(DetectorUnit, CycleFoundWithForeignViaIgnored) {
  // A matching-empty CDM whose via reference is not among the cancelled
  // dependencies is malformed and must not be acted upon.
  install({{S, 4, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {9, 1};
  msg.candidate = make_ref_id(9, 5);
  msg.via = S;
  msg.via_ic = 4;
  msg.source = {{make_ref_id(9, 5), 1}};
  msg.target = {{make_ref_id(9, 5), 1}};
  det->on_cdm(msg, 0);
  EXPECT_TRUE(cap.cycles.empty());
}

TEST_F(DetectorUnit, HopLimitDropsCdm) {
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 0;
  msg.hops = cfg.cdm_hop_limit;
  msg.source = {{make_ref_id(3, 9), 0}};
  msg.target = {{S, 0}};
  det->on_cdm(msg, 0);
  EXPECT_TRUE(cap.sent.empty());
}

TEST_F(DetectorUnit, DerivationEqualToDeliveredIsDropped) {
  // Arrival scion and its one stub are both already in the algebra:
  // expansion adds nothing, so the branch must die (paper §3.1 step 15).
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 0;
  msg.hops = 3;
  msg.source = {{make_ref_id(3, 9), 0}, {S, 0}};
  msg.target = {{T, 0}};
  det->on_cdm(msg, 0);
  EXPECT_TRUE(cap.sent.empty());
  EXPECT_EQ(metrics.detections_dropped_dup.get(), 1u);
}

TEST_F(DetectorUnit, ExtraDependenciesEnterSourceSet) {
  const RefId S2 = make_ref_id(0, 8);  // converging scion (ScionsTo)
  install({{S, 0, 7, 1, {T}}, {S2, 6, 8, 2, {T}}},
          {{T, 0, ObjectId{2, 1}, false, {S, S2}}});
  EXPECT_TRUE(det->start_detection(S, 0));
  ASSERT_EQ(cap.sent.size(), 1u);
  const CdmMsg& m = cap.sent[0].msg;
  ASSERT_EQ(m.source.size(), 2u);  // S and S2, sorted by ref
  EXPECT_EQ(m.source[0].ref, S);
  EXPECT_EQ(m.source[1].ref, S2);
  EXPECT_EQ(m.source[1].ic, 6u);
}

TEST_F(DetectorUnit, EarlyIcCheckAbortsBeforeForwarding) {
  // §3.2 optimization: the derived algebra would carry {T, ic=5} in target
  // while the delivered source already holds {T, ic=4} (from the remote
  // snapshot) — unmatched counters. No CDM is sent.
  install({{S, 0, 7, 1, {T}}}, {{T, /*ic=*/5, ObjectId{2, 1}, false, {}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 0;
  msg.hops = 1;
  msg.source = {{make_ref_id(3, 9), 0}, {T, 4}};  // T as a dependency, old IC
  msg.target = {{S, 0}};
  det->on_cdm(msg, 0);
  EXPECT_TRUE(cap.sent.empty());
  EXPECT_EQ(metrics.detections_aborted_ic.get(), 1u);
}

TEST_F(DetectorUnit, DuplicateCdmContentDeduped) {
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 0;
  msg.hops = 1;
  msg.source = {{make_ref_id(3, 9), 0}};
  msg.target = {{S, 0}};
  det->on_cdm(msg, 0);
  EXPECT_EQ(cap.sent.size(), 1u);
  det->on_cdm(msg, 0);  // network duplicate
  EXPECT_EQ(cap.sent.size(), 1u);
  EXPECT_EQ(metrics.cdms_deduped.get(), 1u);

  // A different detection id with the same algebra is NOT a duplicate.
  msg.detection = {3, 2};
  det->on_cdm(msg, 0);
  EXPECT_EQ(cap.sent.size(), 2u);
}

TEST_F(DetectorUnit, DedupCacheDisabled) {
  cfg.cdm_dedup_cache_size = 0;
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  CdmMsg msg;
  msg.detection = {3, 1};
  msg.candidate = make_ref_id(3, 9);
  msg.via = S;
  msg.via_ic = 0;
  msg.hops = 1;
  msg.source = {{make_ref_id(3, 9), 0}};
  msg.target = {{S, 0}};
  det->on_cdm(msg, 0);
  det->on_cdm(msg, 0);
  EXPECT_EQ(cap.sent.size(), 2u);
  EXPECT_EQ(metrics.cdms_deduped.get(), 0u);
}

TEST_F(DetectorUnit, TimeoutExpiresDetection) {
  install({{S, 0, 7, 1, {T}}}, {{T, 0, ObjectId{2, 1}, false, {S}}});
  EXPECT_TRUE(det->start_detection(S, 0));
  EXPECT_EQ(det->manager().in_flight(), 1u);
  det->expire(cfg.detection_timeout_us - 1);
  EXPECT_EQ(det->manager().in_flight(), 1u);
  det->expire(cfg.detection_timeout_us);
  EXPECT_EQ(det->manager().in_flight(), 0u);
  EXPECT_EQ(metrics.detections_timed_out.get(), 1u);
  // The candidate can be probed again afterwards.
  EXPECT_TRUE(det->start_detection(S, cfg.detection_timeout_us));
}

TEST_F(DetectorUnit, InflightCapRespected) {
  cfg.max_inflight_detections = 2;
  std::vector<ScionSummary> scions;
  std::vector<StubSummary> stubs;
  for (int i = 0; i < 4; ++i) {
    const RefId sc = make_ref_id(0, 10 + i);
    const RefId st = make_ref_id(5, 10 + i);
    scions.push_back({sc, 0, 7, static_cast<ObjectSeq>(i), {st}});
    stubs.push_back({st, 0, ObjectId{2, static_cast<ObjectSeq>(i)}, false, {sc}});
  }
  install(std::move(scions), std::move(stubs));
  EXPECT_TRUE(det->start_detection(make_ref_id(0, 10), 0));
  EXPECT_TRUE(det->start_detection(make_ref_id(0, 11), 0));
  EXPECT_FALSE(det->start_detection(make_ref_id(0, 12), 0));
}

}  // namespace
}  // namespace adgc
