// Tests for the experiment harness: the global-reachability oracle, the
// scenario builders' structural invariants, and the canned configs.
#include <gtest/gtest.h>

#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

TEST(Oracle, EmptyRuntime) {
  Runtime rt(2, sim::manual_config(1));
  EXPECT_TRUE(sim::global_live_set(rt).empty());
  const auto st = sim::global_stats(rt);
  EXPECT_EQ(st.total_objects, 0u);
  EXPECT_EQ(st.garbage_objects, 0u);
}

TEST(Oracle, FollowsLocalAndRemoteEdges) {
  Runtime rt(2, sim::manual_config(2));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId a2{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  const ObjectId dead{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(0).add_local_ref(a.seq, a2.seq);
  rt.link(a2, b);

  const auto live = sim::global_live_set(rt);
  EXPECT_TRUE(live.contains(a));
  EXPECT_TRUE(live.contains(a2));
  EXPECT_TRUE(live.contains(b));
  EXPECT_FALSE(live.contains(dead));
  const auto st = sim::global_stats(rt);
  EXPECT_EQ(st.total_objects, 4u);
  EXPECT_EQ(st.live_objects, 3u);
  EXPECT_EQ(st.garbage_objects, 1u);
}

TEST(Oracle, SeesThroughDistributedCycles) {
  Runtime rt(3, sim::manual_config(3));
  const sim::Ring ring = sim::build_ring(rt, 3, 2, /*pin_first=*/true);
  EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
  rt.proc(0).remove_root(ring.anchors[0].seq);
  const auto st = sim::global_stats(rt);
  // Anchor + 6 ring objects all garbage now.
  EXPECT_EQ(st.garbage_objects, st.total_objects);
}

TEST(Scenarios, Fig3Shape) {
  Runtime rt(4, sim::manual_config(4));
  const sim::Fig3 fig = sim::build_fig3(rt);
  // 14 objects, 4 remote refs, every object live while A is rooted.
  const auto st = sim::global_stats(rt);
  EXPECT_EQ(st.total_objects, 14u);
  EXPECT_EQ(st.stubs, 4u);
  EXPECT_EQ(st.scions, 4u);
  EXPECT_EQ(st.garbage_objects, 0u);
  // The four refs are pairwise distinct.
  std::set<RefId> refs = {fig.B_to_F, fig.J_to_Q, fig.S_to_O, fig.K_to_D};
  EXPECT_EQ(refs.size(), 4u);
}

TEST(Scenarios, Fig4Shape) {
  Runtime rt(6, sim::manual_config(5));
  const sim::Fig4 fig = sim::build_fig4(rt);
  const auto st = sim::global_stats(rt);
  EXPECT_EQ(st.total_objects, 8u);
  EXPECT_EQ(st.garbage_objects, 8u);  // garbage from the start
  // V and Y share the same stub entry: both fields carry the one ref.
  Process& p5 = rt.proc(4);
  ASSERT_TRUE(p5.stubs().contains(fig.VY_to_T));
  EXPECT_EQ(p5.heap().find(fig.V.seq)->remote_fields, std::vector<RefId>{fig.VY_to_T});
  EXPECT_EQ(p5.heap().find(fig.Y.seq)->remote_fields, std::vector<RefId>{fig.VY_to_T});
  EXPECT_EQ(st.scions, 7u);  // 8 remote refs but V/Y share one

  // The shared stub survives while either holder lives, and dies in the
  // LGC that reclaims the last one.
  p5.run_lgc();
  EXPECT_TRUE(p5.stubs().contains(fig.VY_to_T));
  p5.drop_scion(fig.F_to_V);
  p5.run_lgc();
  EXPECT_FALSE(p5.heap().exists(fig.V.seq));
  EXPECT_TRUE(p5.stubs().contains(fig.VY_to_T)) << "Y still holds it";
  p5.drop_scion(fig.ZD_to_Y);
  p5.run_lgc();
  EXPECT_FALSE(p5.heap().exists(fig.Y.seq));
  EXPECT_FALSE(p5.stubs().contains(fig.VY_to_T));
}

TEST(Scenarios, Fig1PinControlsLiveness) {
  {
    Runtime rt(4, sim::manual_config(6));
    sim::build_fig1(rt, /*pin_w=*/true);
    EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
  }
  {
    Runtime rt(4, sim::manual_config(7));
    sim::build_fig1(rt, /*pin_w=*/false);
    EXPECT_EQ(sim::global_stats(rt).garbage_objects, 4u);
  }
}

TEST(Scenarios, Fig5StartsLive) {
  Runtime rt(5, sim::manual_config(8));
  const sim::Fig5 fig = sim::build_fig5(rt);
  const auto live = sim::global_live_set(rt);
  // Everything reachable: A root covers the cycle; M is its own root.
  EXPECT_TRUE(live.contains(fig.F));
  EXPECT_TRUE(live.contains(fig.V));
  EXPECT_TRUE(live.contains(fig.M));
  EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
}

TEST(Scenarios, RingParameterValidation) {
  Runtime rt(2, sim::manual_config(9));
  EXPECT_THROW(sim::build_ring(rt, 5, 1), std::invalid_argument);  // too few procs
  EXPECT_THROW(sim::build_ring(rt, 1, 1), std::invalid_argument);
  EXPECT_THROW(sim::build_ring(rt, 2, 0), std::invalid_argument);
}

TEST(Scenarios, RingSpansAllProcesses) {
  Runtime rt(5, sim::manual_config(10));
  const sim::Ring ring = sim::build_ring(rt, 5, 4);
  EXPECT_EQ(ring.heads.size(), 5u);
  EXPECT_EQ(ring.ring_refs.size(), 5u);
  for (ProcessId pid = 0; pid < 5; ++pid) {
    EXPECT_GE(rt.proc(pid).heap().size(), 4u) << pid;
  }
  EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
}

TEST(Configs, ManualConfigSuppressesTimers) {
  Runtime rt(2, sim::manual_config(11));
  rt.proc(0).create_object();  // unrooted garbage
  rt.run_for(5'000'000);
  // No LGC ever ran on its own.
  EXPECT_EQ(rt.total_metrics().lgc_runs.get(), 0u);
  EXPECT_EQ(rt.proc(0).heap().size(), 1u);
}

TEST(Configs, FastConfigRunsEverything) {
  Runtime rt(2, sim::fast_config(12));
  rt.proc(0).create_object();  // unrooted garbage
  rt.run_for(200'000);
  const Metrics m = rt.total_metrics();
  EXPECT_GT(m.lgc_runs.get(), 0u);
  EXPECT_GT(m.snapshots_taken.get(), 0u);
  EXPECT_EQ(rt.proc(0).heap().size(), 0u);
}

TEST(Configs, SettleManualDrivesFullRounds) {
  Runtime rt(3, sim::manual_config(13));
  const sim::Ring ring = sim::build_ring(rt, 3, 2, /*pin_first=*/false);
  (void)ring;
  EXPECT_EQ(sim::global_stats(rt).total_objects, 6u);
  sim::settle_manual(rt, 10);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

}  // namespace
}  // namespace adgc
