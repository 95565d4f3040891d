// Tests for the global-trace baseline collector ("GC the world"):
// correctness on the paper's shapes, the conservative mutation guards, and
// its characteristic weakness — one unreachable member stalls the epoch.
#include <gtest/gtest.h>

#include "src/baseline/baselines.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

std::vector<ProcessId> all_members(const Runtime& rt) {
  std::vector<ProcessId> m;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) m.push_back(pid);
  return m;
}

template <class M>
M round_trip(const M& m) { return decode_baseline<M>(encode_baseline(m)); }

TEST(GlobalTrace, MessagesRoundTrip) {
  GtStartMsg st;
  st.epoch = 3;
  st.epoch_start = 123456789;
  EXPECT_EQ(round_trip(st), st);

  GtMarkMsg mk;
  mk.epoch = 3;
  mk.ref = make_ref_id(7, 8);
  EXPECT_EQ(round_trip(mk), mk);

  GtPollMsg pl;
  pl.epoch = 3;
  pl.poll_seq = 11;
  EXPECT_EQ(round_trip(pl), pl);

  GtStatusMsg su;
  su.epoch = 3;
  su.poll_seq = 11;
  su.marks_sent = 100;
  su.marks_processed = 99;
  EXPECT_EQ(round_trip(su), su);

  GtFinishMsg fi;
  fi.epoch = 3;
  EXPECT_EQ(round_trip(fi), fi);
}

TEST(GlobalTrace, CollectsDistributedCycle) {
  Runtime rt(4, sim::manual_config(61));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);

  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  // All four ring scions die at once (the hallmark of a global trace).
  EXPECT_EQ(bl.counters().gt_scions_deleted.get(), 4u);

  sim::settle_manual(rt, 6);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(GlobalTrace, KeepsLiveObjects) {
  Runtime rt(4, sim::manual_config(62));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);  // A rooted
  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  EXPECT_EQ(bl.counters().gt_scions_deleted.get(), 0u);
  sim::settle_manual(rt, 4);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 14u);
  EXPECT_TRUE(rt.proc(1).heap().exists(fig.F.seq));
}

TEST(GlobalTrace, CollectsMutualCyclesInOneEpoch) {
  Runtime rt(6, sim::manual_config(63));
  Baselines bl(rt);
  sim::build_fig4(rt);  // garbage from the start
  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  EXPECT_EQ(bl.counters().gt_scions_deleted.get(), 7u);
  sim::settle_manual(rt, 6);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(GlobalTrace, MixedLiveAndGarbage) {
  Runtime rt(4, sim::manual_config(64));
  Baselines bl(rt);
  const sim::Fig1 live = sim::build_fig1(rt, /*pin_w=*/true);   // cycle kept by w
  // Plus a second, unreachable cycle between P1 and P2.
  const ObjectId g1{0, rt.proc(0).create_object()};
  const ObjectId g2{1, rt.proc(1).create_object()};
  rt.link(g1, g2);
  rt.link(g2, g1);

  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  sim::settle_manual(rt, 6);
  EXPECT_TRUE(rt.proc(0).heap().exists(live.x.seq));
  EXPECT_FALSE(rt.proc(0).heap().exists(g1.seq));
  EXPECT_FALSE(rt.proc(1).heap().exists(g2.seq));
}

TEST(GlobalTrace, MutationGuardsAreConservative) {
  Runtime rt(4, sim::manual_config(65));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);

  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  // Invoke through a ring reference WHILE the trace is running: its scion's
  // counter changes during the epoch, so it must survive this epoch.
  rt.proc(0).invoke(fig.B.seq, fig.B_to_F, InvokeEffect::kTouch);
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  EXPECT_TRUE(rt.proc(1).scions().contains(fig.B_to_F));

  // A later quiet epoch collects it.
  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  sim::settle_manual(rt, 6);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(GlobalTrace, PartitionedMemberStallsTheWorld) {
  // The §5 critique, demonstrated: P3 is unreachable; the epoch never
  // terminates, and NOTHING is collected — even garbage entirely outside
  // P3. The DCDA in the same situation collects the P0/P1 cycle fine.
  Runtime rt(4, sim::manual_config(66));
  Baselines bl(rt);
  const ObjectId g1{0, rt.proc(0).create_object()};
  const ObjectId g2{1, rt.proc(1).create_object()};
  rt.link(g1, g2);
  rt.link(g2, g1);

  for (ProcessId pid = 0; pid < 4; ++pid) {
    rt.network().set_link_blocked(pid, 3, true);
    rt.network().set_link_blocked(3, pid, true);
  }
  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(2'000'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 0u);
  EXPECT_TRUE(bl.gtrace(0).coordinating()) << "epoch should still be stuck";
  EXPECT_TRUE(rt.proc(0).heap().exists(g1.seq));

  // The DCDA is indifferent to P3's absence.
  for (ProcessId pid = 0; pid < 3; ++pid) {
    rt.proc(pid).run_lgc();
    rt.proc(pid).take_snapshot();
  }
  rt.run_for(50'000);
  const auto snap = rt.proc(1).current_summary();
  ASSERT_NE(snap, nullptr);
  RefId candidate = kNoRef;
  for (const auto& [ref, sc] : rt.proc(1).scions()) candidate = ref;
  ASSERT_NE(candidate, kNoRef);
  ASSERT_TRUE(rt.proc(1).detector().start_detection(candidate, rt.now()));
  rt.run_for(200'000);
  sim::settle_manual(rt, 4);
  EXPECT_FALSE(rt.proc(0).heap().exists(g1.seq)) << "DCDA should have collected it";

  bl.gtrace(0).abort_epoch();
  EXPECT_FALSE(bl.gtrace(0).coordinating());
}

TEST(GlobalTrace, SecondEpochRefusedWhileRunning) {
  Runtime rt(3, sim::manual_config(67));
  Baselines bl(rt);
  rt.run_for(30'000);  // let construction-time timestamps age past epoch_start
  ASSERT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
  EXPECT_FALSE(bl.gtrace(0).start_epoch(all_members(rt)));
  rt.run_for(500'000);
  EXPECT_EQ(bl.gtrace(0).completed_epochs(), 1u);
  // And a new one can start after completion.
  EXPECT_TRUE(bl.gtrace(0).start_epoch(all_members(rt)));
}

}  // namespace
}  // namespace adgc
