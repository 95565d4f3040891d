// Crash/restart fault-tolerance tests.
//
// The fault model (docs/FAULT_MODEL.md): a crash loses all volatile state;
// a restart rolls the process back to its last persisted snapshot under a
// new incarnation. The properties checked here:
//   * live remote references survive a crash/restart of either endpoint;
//   * a distributed garbage cycle spanning a crashed-and-restarted process
//     is still eventually collected;
//   * messages from/to a dead incarnation are dropped and can never delete
//     state the rollback resurrected;
//   * a cold restart (no snapshot store) leaves the rest of the system
//     functional;
//   * the crash preset of the fault sweep (every process crashed once
//     mid-detection) leaves no garbage and keeps every live sentinel
//     reachable, across seeds;
//   * the threaded runtime supports the same crash/restart cycle under real
//     concurrency.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/rt/threaded_runtime.h"
#include "src/sim/fault_sweep.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

/// Fresh per-test snapshot directory under the gtest temp root.
std::string snap_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("adgc_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Rooted object at P0 holding a remote reference to an unrooted object at
/// P1 — the target's survival depends entirely on the stub/scion pair.
struct LiveRef {
  ObjectId holder_obj;  // rooted, at P0
  ObjectId target_obj;  // unrooted, at P1
  RefId ref = kNoRef;
};

LiveRef build_live_ref(Runtime& rt) {
  LiveRef lr;
  lr.holder_obj = ObjectId{0, rt.proc(0).create_object()};
  lr.target_obj = ObjectId{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(lr.holder_obj.seq);
  lr.ref = rt.link(lr.holder_obj, lr.target_obj);
  return lr;
}

TEST(CrashRestart, LiveRefSurvivesOwnerRestart) {
  RuntimeConfig cfg = sim::fast_config(7);
  cfg.proc.snapshot_dir = snap_dir("owner_restart");
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt);

  rt.run_for(500'000);  // many snapshot periods: state durable on both sides
  rt.crash(1);
  rt.run_for(40'000);
  EXPECT_TRUE(rt.restart(1));  // recovered from disk
  rt.run_for(2'000'000);

  ASSERT_TRUE(rt.proc(1).heap().exists(lr.target_obj.seq))
      << "owner restart lost the target of a live remote reference";
  EXPECT_TRUE(rt.proc(1).scions().contains(lr.ref));
  EXPECT_TRUE(rt.proc(0).stubs().contains(lr.ref));

  // The reference is still usable.
  const auto received_before = rt.total_metrics().invocations_received.get();
  rt.proc(0).invoke(lr.holder_obj.seq, lr.ref, InvokeEffect::kTouch);
  rt.run_for(100'000);
  EXPECT_GT(rt.total_metrics().invocations_received.get(), received_before);
  EXPECT_EQ(rt.total_metrics().invocations_dropped.get(), 0u);
}

TEST(CrashRestart, LiveRefSurvivesHolderRestart) {
  RuntimeConfig cfg = sim::fast_config(8);
  cfg.proc.snapshot_dir = snap_dir("holder_restart");
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt);

  rt.run_for(500'000);
  rt.crash(0);
  rt.run_for(40'000);
  EXPECT_TRUE(rt.restart(0));
  rt.run_for(2'000'000);

  // The restored holder still lists the reference in its NewSetStubs, so the
  // scion — and with it the target — must stay alive.
  ASSERT_TRUE(rt.proc(1).heap().exists(lr.target_obj.seq))
      << "holder restart lost a live remote reference target";
  EXPECT_TRUE(rt.proc(0).stubs().contains(lr.ref));
  EXPECT_TRUE(rt.proc(0).heap().is_root(lr.holder_obj.seq));
  EXPECT_EQ(rt.incarnation(0), 1u);
}

TEST(CrashRestart, CycleThroughRestartedProcessStillCollected) {
  RuntimeConfig cfg = sim::fast_config(9);
  cfg.proc.snapshot_dir = snap_dir("cycle_restart");
  Runtime rt(4, cfg);
  const sim::Fig3 fig = sim::build_fig3(rt);

  rt.run_for(400'000);
  rt.proc(0).remove_root(fig.A.seq);
  // Let detections get going on the now-garbage cycle, then yank one of the
  // cycle's processes out from under them.
  rt.run_for(100'000);
  rt.crash(2);
  rt.run_for(50'000);
  EXPECT_TRUE(rt.restart(2));
  rt.run_for(15'000'000);

  for (ObjectId id : {fig.B, fig.F, fig.J, fig.Q, fig.S, fig.O, fig.K, fig.D}) {
    EXPECT_FALSE(rt.proc(id.owner).heap().exists(id.seq))
        << "cycle object " << to_string(id) << " survived settling";
  }
  EXPECT_GT(rt.total_metrics().detections_cycle_found.get(), 0u);
}

TEST(CrashRestart, StaleIncarnationNssCannotDeleteResurrectedState) {
  RuntimeConfig cfg = sim::manual_config(10);
  cfg.proc.snapshot_dir = snap_dir("stale_nss");
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt);

  // Confirm the scion, then persist both sides.
  rt.proc(0).run_lgc();
  rt.run_for(50'000);
  ASSERT_TRUE(rt.proc(1).scions().find(lr.ref)->confirmed);
  rt.proc(0).take_snapshot();
  rt.proc(1).take_snapshot();

  // Post-snapshot mutation: drop the reference and emit the NewSetStubs that
  // no longer lists it — then crash before it is delivered. The restart rolls
  // P0 back to holding the reference, so that in-flight message now describes
  // state that never happened; applying it would strand the restored stub.
  rt.proc(0).remove_remote_ref(lr.holder_obj.seq, lr.ref);
  rt.proc(0).run_lgc();
  rt.proc(0).flush_batches();  // NSS leaves the NIC before the crash lands
  rt.crash(0);
  EXPECT_TRUE(rt.restart(0));
  EXPECT_TRUE(rt.proc(0).stubs().contains(lr.ref));  // rollback resurrected it

  rt.run_for(200'000);  // the stale NewSetStubs comes up for delivery

  EXPECT_GE(rt.net_metrics().messages_stale_incarnation.get(), 1u)
      << "the dead incarnation's message should have been dropped";
  ASSERT_TRUE(rt.proc(1).scions().contains(lr.ref))
      << "stale NewSetStubs from a dead incarnation deleted a scion";
  EXPECT_TRUE(rt.proc(1).heap().exists(lr.target_obj.seq));
}

TEST(CrashRestart, ColdRestartWithoutStoreLeavesSystemFunctional) {
  RuntimeConfig cfg = sim::fast_config(11);  // no snapshot_dir: nothing persisted
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt);

  rt.run_for(200'000);
  rt.crash(1);
  EXPECT_FALSE(rt.alive(1));
  rt.run_for(40'000);
  EXPECT_FALSE(rt.restart(1));  // nothing to recover
  EXPECT_TRUE(rt.alive(1));
  EXPECT_EQ(rt.proc(1).heap().size(), 0u);

  // The holder's stub now dangles; invocations through it are dropped, never
  // resurrected, and the rest of the system keeps running.
  rt.proc(0).invoke(lr.holder_obj.seq, lr.ref, InvokeEffect::kTouch);
  rt.run_for(3'000'000);
  EXPECT_GT(rt.total_metrics().invocations_dropped.get(), 0u);
  EXPECT_TRUE(rt.proc(0).heap().exists(lr.holder_obj.seq));
  const auto live = sim::global_live_set(rt);
  EXPECT_TRUE(live.contains(lr.holder_obj));
}

TEST(CrashRestart, RestartedIncarnationNeverReusesIdentifiers) {
  RuntimeConfig cfg = sim::fast_config(12);
  cfg.proc.snapshot_dir = snap_dir("id_reuse");
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt);
  const ObjectSeq pre_crash_seq = lr.target_obj.seq;

  rt.run_for(300'000);
  rt.crash(1);
  rt.run_for(20'000);
  EXPECT_TRUE(rt.restart(1));

  // Objects and references minted by the new incarnation live in a disjoint
  // identifier range.
  const ObjectSeq fresh = rt.proc(1).create_object();
  EXPECT_GT(fresh, pre_crash_seq);
  EXPECT_GE(fresh, ObjectSeq{1} << 40);
  const ObjectId fresh_id{1, fresh};
  rt.proc(1).add_root(fresh);
  const ObjectId holder2{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(holder2.seq);
  const RefId new_ref = rt.link(holder2, fresh_id);
  EXPECT_NE(new_ref, lr.ref);
  EXPECT_GE(new_ref & ((RefId{1} << 40) - 1), RefId{1} << 32);
}

// ------------------------------------------------- acceptance: crash sweep

class CrashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashSweep, CollectsCycleNeverLosesLiveObjects) {
  sim::FaultSweepParams p = sim::crash_preset(GetParam());
  p.snapshot_dir = snap_dir("sweep_" + std::to_string(p.seed));
  const sim::FaultSweepResult res = sim::run_fault_sweep(p);
  EXPECT_TRUE(res.no_garbage) << res.detail;
  EXPECT_TRUE(res.sentinels_ok) << res.detail;
  EXPECT_EQ(res.crashes, 4u);
  EXPECT_EQ(res.recovered, 4u) << "some restart failed to recover its snapshot";
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, CrashSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ------------------------------------------------------- threaded runtime

TEST(CrashRestartThreaded, CrashAndRecoverUnderRealConcurrency) {
  RuntimeConfig cfg;
  cfg.seed = 13;
  cfg.proc.lgc_period_us = 10'000;
  cfg.proc.snapshot_period_us = 15'000;
  cfg.proc.dcda_scan_period_us = 20'000;
  cfg.proc.snapshot_dir = snap_dir("threaded_crash");
  ThreadedRuntime rt(3, cfg);

  ObjectSeq holder_seq = 0, target_seq = 0;
  rt.post_sync(1, [&](Process& p) { target_seq = p.create_object(); });
  ExportedRef exported;
  rt.post_sync(1, [&](Process& p) { exported = p.export_own_object(target_seq, 0); });
  rt.post_sync(0, [&](Process& p) {
    holder_seq = p.create_object();
    p.add_root(holder_seq);
    p.install_ref(holder_seq, exported);
  });
  // Force a durable snapshot of the owner, then kill it.
  rt.post_sync(1, [](Process& p) { p.take_snapshot(); });

  rt.crash(1);
  EXPECT_FALSE(rt.alive(1));
  // Posting to a crashed process is silently skipped, not a crash.
  rt.post_sync(1, [](Process&) { FAIL() << "ran a closure on a dead process"; });

  EXPECT_TRUE(rt.restart(1));
  EXPECT_TRUE(rt.alive(1));
  EXPECT_EQ(rt.incarnation(1), 1u);

  bool exists = false, has_scion = false;
  rt.post_sync(1, [&](Process& p) {
    exists = p.heap().exists(target_seq);
    has_scion = p.scions().contains(exported.ref);
  });
  EXPECT_TRUE(exists) << "restart lost the exported object";
  EXPECT_TRUE(has_scion);

  // The reference still works from the holder's side.
  rt.post_sync(0, [&](Process& p) {
    p.invoke(holder_seq, exported.ref, InvokeEffect::kTouch);
  });
  rt.shutdown();
  EXPECT_EQ(rt.total_metrics().process_crashes.get(), 1u);
  EXPECT_EQ(rt.total_metrics().process_restarts.get(), 1u);
  EXPECT_EQ(rt.total_metrics().restarts_recovered.get(), 1u);
}

}  // namespace
}  // namespace adgc
