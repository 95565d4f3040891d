// Unit tests for the cycle-candidate selection heuristic.
#include <gtest/gtest.h>

#include <memory>

#include "src/dcda/candidates.h"

namespace adgc {
namespace {

class Candidates : public ::testing::Test {
 protected:
  Candidates() : manager(0) {
    cfg.candidate_quarantine_us = 100;
    cfg.max_inflight_detections = 8;
  }

  // Adds a live scion + matching snapshot entry. Returns the ref.
  RefId add(std::uint64_t ic, bool root_reach, SimTime last_change,
            bool in_snapshot = true, bool has_stubs = true,
            std::uint64_t snap_ic_delta = 0) {
    const RefId ref = make_ref_id(1, next_++);
    auto& sc = scions.ensure(ref, /*holder=*/1, /*target=*/next_, /*now=*/0);
    sc.ic = ic;
    sc.target_root_reachable = root_reach;
    sc.last_ic_change = last_change;
    if (in_snapshot) {
      ScionSummary sum;
      sum.ref = ref;
      sum.ic = ic + snap_ic_delta;
      sum.target = next_;
      if (has_stubs) sum.stubs_from.push_back(make_ref_id(2, next_));
      snap.scions.emplace(ref, std::move(sum));
    }
    return ref;
  }

  ProcessConfig cfg;
  ScionTable scions;
  SummarizedGraph snap;
  DetectionManager manager;
  std::uint64_t next_ = 1;
};

TEST_F(Candidates, QuietUnreachableScionSelected) {
  const RefId ref = add(/*ic=*/3, /*root_reach=*/false, /*last_change=*/0);
  const auto out = select_candidates(scions, &snap, manager, cfg, /*now=*/200);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], ref);
}

TEST_F(Candidates, RootReachableExcluded) {
  add(3, /*root_reach=*/true, 0);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
}

TEST_F(Candidates, QuarantineNotElapsedExcluded) {
  add(3, false, /*last_change=*/150);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 250).size(), 1u);
}

TEST_F(Candidates, MissingFromSnapshotExcluded) {
  add(3, false, 0, /*in_snapshot=*/false);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
}

TEST_F(Candidates, StaleSnapshotIcExcluded) {
  add(3, false, 0, true, true, /*snap_ic_delta=*/1);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
}

TEST_F(Candidates, NoOutgoingStubsExcluded) {
  add(3, false, 0, true, /*has_stubs=*/false);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
}

TEST_F(Candidates, ActiveDetectionExcluded) {
  const RefId ref = add(3, false, 0);
  manager.begin(ref, 0, 1000);
  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200).empty());
  manager.end(DetectionId{0, 1});
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 200).size(), 1u);
}

TEST_F(Candidates, NullSnapshotYieldsNothing) {
  add(3, false, 0);
  EXPECT_TRUE(select_candidates(scions, nullptr, manager, cfg, 200).empty());
}

TEST_F(Candidates, BudgetCapsSelection) {
  cfg.max_inflight_detections = 3;
  for (int i = 0; i < 10; ++i) add(1, false, 0);
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 200).size(), 3u);
  manager.begin(make_ref_id(9, 9), 0, 1000);
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 200).size(), 2u);
}

TEST_F(Candidates, OldestQuietOrdersByLastChange) {
  cfg.max_inflight_detections = 2;
  const RefId young = add(1, false, /*last_change=*/90);
  const RefId old1 = add(1, false, /*last_change=*/10);
  const RefId old2 = add(1, false, /*last_change=*/50);
  const auto out = select_candidates(scions, &snap, manager, cfg, /*now=*/500);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], old1);
  EXPECT_EQ(out[1], old2);
  (void)young;
}

// The relaunch backoff a timed-out detection leaves on its scion defers the
// candidate, but only under the adaptive inputs (a tracker passed).
TEST_F(Candidates, RelaunchBackoffDefersOnlyWithTracker) {
  const RefId ref = add(3, false, 0);
  scions.find(ref)->relaunch_not_before = 300;
  Metrics metrics;
  const PeerHealthTracker peers(cfg, metrics);

  EXPECT_TRUE(select_candidates(scions, &snap, manager, cfg, 200, &peers, &metrics).empty());
  EXPECT_EQ(metrics.detections_deferred_backoff.get(), 1u);
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 200, nullptr, &metrics),
            std::vector<RefId>{ref})
      << "without a tracker the backoff is not read";
  EXPECT_EQ(select_candidates(scions, &snap, manager, cfg, 300, &peers, &metrics),
            std::vector<RefId>{ref})
      << "the backoff has run out";
  EXPECT_EQ(metrics.detections_deferred_backoff.get(), 1u);
}

TEST(DetectionManager, BeginEndExpire) {
  DetectionManager m(4);
  const DetectionId a = m.begin(make_ref_id(0, 1), /*now=*/0, /*timeout=*/100);
  const DetectionId b = m.begin(make_ref_id(0, 2), 50, 100);
  EXPECT_EQ(a.initiator, 4u);
  EXPECT_NE(a.seq, b.seq);
  EXPECT_TRUE(m.active(a));
  EXPECT_TRUE(m.candidate_active(make_ref_id(0, 1)));
  EXPECT_EQ(m.in_flight(), 2u);

  const auto expired = m.expire(100);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, a);
  EXPECT_FALSE(m.candidate_active(make_ref_id(0, 1)));

  m.end(b);
  EXPECT_EQ(m.in_flight(), 0u);
  m.end(b);  // idempotent
}

}  // namespace
}  // namespace adgc
