// Tests for the baseline back-tracing cycle detector (Maheshwari-Liskov
// style), and a head-to-head sanity check against the DCDA.
#include <gtest/gtest.h>

#include "src/baseline/baselines.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

void snapshot_all(Runtime& rt) {
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    rt.proc(pid).run_lgc();
    rt.proc(pid).take_snapshot();
  }
  rt.run_for(30'000);
}

TEST(Backtrace, MessagesRoundTrip) {
  BacktraceRequestMsg rq;
  rq.trace_id = 7;
  rq.req_id = 13;
  rq.subject_ref = make_ref_id(1, 1);
  rq.visited = {make_ref_id(1, 1), make_ref_id(2, 2)};
  rq.depth = 3;
  EXPECT_EQ(decode_baseline<BacktraceRequestMsg>(encode_baseline(rq)), rq);

  BacktraceReplyMsg rp;
  rp.trace_id = 7;
  rp.req_id = 13;
  rp.reachable = true;
  EXPECT_EQ(decode_baseline<BacktraceReplyMsg>(encode_baseline(rp)), rp);
}

TEST(Backtrace, DetectsSimpleCycle) {
  Runtime rt(4, sim::manual_config(81));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);
  snapshot_all(rt);

  bl.backtracer(1).start(fig.B_to_F);
  rt.run_for(300'000);

  EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 1u);
  EXPECT_FALSE(rt.proc(1).scions().contains(fig.B_to_F));

  sim::settle_manual(rt, 8);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(Backtrace, RootedCycleReportsReachable) {
  Runtime rt(4, sim::manual_config(82));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);  // A rooted
  snapshot_all(rt);

  bl.backtracer(1).start(fig.B_to_F);
  rt.run_for(300'000);
  EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 0u);
  EXPECT_TRUE(rt.proc(1).scions().contains(fig.B_to_F));
}

TEST(Backtrace, ConvergingDependencyTraced) {
  // Fig. 1 shape: the back-trace must follow BOTH scions into x.
  {
    Runtime rt(4, sim::manual_config(83));
    Baselines bl(rt);
    const sim::Fig1 fig = sim::build_fig1(rt, /*pin_w=*/true);
    snapshot_all(rt);
    bl.backtracer(1).start(fig.x_to_y);
    rt.run_for(300'000);
    // w is rooted: reachable, nothing deleted.
    EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 0u);
  }
  {
    Runtime rt(4, sim::manual_config(84));
    Baselines bl(rt);
    const sim::Fig1 fig = sim::build_fig1(rt, /*pin_w=*/false);
    // Three rounds: reclaim w and its stub (acyclic DGC), let the pending
    // w→x scion age past its grace and be dropped by NewSetStubs, then
    // refresh P1's snapshot so the dead dependency is gone.
    snapshot_all(rt);
    snapshot_all(rt);
    snapshot_all(rt);
    bl.backtracer(1).start(fig.x_to_y);
    rt.run_for(300'000);
    EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 1u);
  }
}

TEST(Backtrace, MutualCyclesDetected) {
  Runtime rt(6, sim::manual_config(85));
  Baselines bl(rt);
  const sim::Fig4 fig = sim::build_fig4(rt);
  snapshot_all(rt);
  bl.backtracer(1).start(fig.D_to_F);
  rt.run_for(500'000);
  EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 1u);
  sim::settle_manual(rt, 10);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(Backtrace, IntermediateStateIsHeldAndDrains) {
  // The §5 drawback made measurable: during the trace, intermediate
  // processes hold per-trace records; after completion they drain.
  Runtime rt(4, sim::manual_config(86));
  Baselines bl(rt);
  const sim::Fig1 fig = sim::build_fig1(rt, /*pin_w=*/false);
  snapshot_all(rt);
  bl.backtracer(1).start(fig.x_to_y);
  rt.run_for(500'000);
  for (ProcessId pid = 0; pid < 4; ++pid) {
    EXPECT_EQ(bl.backtracer(pid).state_records(), 0u) << "pid " << pid;
  }
}

TEST(Backtrace, MutationInvalidatesTrace) {
  // The scion is invoked mid-trace: the final revalidation must refuse.
  Runtime rt(4, sim::manual_config(87));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);
  snapshot_all(rt);

  bl.backtracer(1).start(fig.B_to_F);
  // Immediately touch the reference (before replies return).
  rt.proc(0).invoke(fig.B.seq, fig.B_to_F, InvokeEffect::kTouch);
  rt.run_for(300'000);
  // Trace concluded but the IC changed → no deletion.
  EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 0u);
  EXPECT_TRUE(rt.proc(1).scions().contains(fig.B_to_F));
}

TEST(Backtrace, ExpiredTraceStateDrains) {
  Runtime rt(4, sim::manual_config(88));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);
  snapshot_all(rt);

  // Cut a link so the trace can never complete.
  rt.network().set_link_blocked(1, 0, true);  // P2→P1 (requests toward P1)
  bl.backtracer(1).start(fig.B_to_F);
  rt.run_for(300'000);
  for (ProcessId pid = 0; pid < 4; ++pid) {
    bl.backtracer(pid).expire(rt.now(), /*max_age=*/1);
    EXPECT_EQ(bl.backtracer(pid).state_records(), 0u);
  }
}

TEST(Backtrace, HeadToHeadWithDcda) {
  // Both detectors must agree on the Fig. 3 verdicts; the baseline takes
  // two messages per hop (request+reply) where the DCDA takes one.
  Runtime rt(4, sim::manual_config(89));
  Baselines bl(rt);
  const sim::Fig3 fig = sim::build_fig3(rt);
  rt.proc(0).remove_root(fig.A.seq);
  snapshot_all(rt);

  bl.backtracer(1).start(fig.B_to_F);
  rt.run_for(300'000);
  const std::uint64_t bt_msgs = bl.counters().backtrace_requests.get() +
                                bl.counters().backtrace_replies.get();

  Runtime rt2(4, sim::manual_config(90));
  const sim::Fig3 fig2 = sim::build_fig3(rt2);
  rt2.proc(0).remove_root(fig2.A.seq);
  snapshot_all(rt2);
  rt2.proc(1).detector().start_detection(fig2.B_to_F, rt2.now());
  rt2.run_for(300'000);
  const std::uint64_t dcda_msgs = rt2.total_metrics().cdms_sent.get();

  EXPECT_EQ(bl.counters().backtrace_cycles_found.get(), 1u);
  EXPECT_EQ(rt2.total_metrics().detections_cycle_found.get(), 1u);
  EXPECT_GT(bt_msgs, dcda_msgs);
}

}  // namespace
}  // namespace adgc
