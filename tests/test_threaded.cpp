// The real multi-threaded runtime: one OS thread per process, wall-clock
// timers, concurrent mailboxes. Verifies that the collectors deliver the
// same guarantees under true asynchrony (the paper's headline claim).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/rt/threaded_runtime.h"

namespace adgc {
namespace {

RuntimeConfig threaded_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  // Millisecond-scale collector periods: tests complete in a second or two.
  cfg.proc.lgc_period_us = 3'000;
  cfg.proc.snapshot_period_us = 7'000;
  cfg.proc.dcda_scan_period_us = 9'000;
  cfg.proc.candidate_quarantine_us = 5'000;
  cfg.proc.scion_pending_grace_us = 50'000;
  cfg.proc.detection_timeout_us = 300'000;
  cfg.proc.add_scion_retry_us = 5'000;
  return cfg;
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

std::size_t total_objects(ThreadedRuntime& rt) {
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    rt.post_sync(pid, [&](Process& p) { total += p.heap().size(); });
  }
  return total;
}

TEST(Threaded, StartStopClean) {
  ThreadedRuntime rt(3, threaded_config(1));
  sleep_ms(50);
  rt.shutdown();
  // LGC ran on every process.
  EXPECT_GE(rt.total_metrics().lgc_runs.get(), 3u);
}

TEST(Threaded, AcyclicCollectionUnderConcurrency) {
  ThreadedRuntime rt(2, threaded_config(2));
  ObjectSeq a = 0, b = 0;
  rt.post_sync(0, [&](Process& p) {
    a = p.create_object();
    p.add_root(a);
  });
  // b is temporarily rooted until the export pins it with a scion — the
  // free-running LGC may otherwise sweep it between the two post_syncs.
  rt.post_sync(1, [&](Process& p) {
    b = p.create_object();
    p.add_root(b);
  });

  // Export b to a (two-step through the actors).
  ExportedRef er;
  rt.post_sync(1, [&](Process& p) { er = p.export_own_object(b, 0); });
  RefId ref = kNoRef;
  rt.post_sync(0, [&](Process& p) { ref = p.install_ref(a, er); });
  rt.post_sync(1, [&](Process& p) { p.remove_root(b); });

  sleep_ms(150);
  bool b_alive = false;
  rt.post_sync(1, [&](Process& p) { b_alive = p.heap().exists(b); });
  EXPECT_TRUE(b_alive) << "scion must pin b";

  rt.post_sync(0, [&](Process& p) { p.remove_remote_ref(a, ref); });
  sleep_ms(400);
  rt.post_sync(1, [&](Process& p) { b_alive = p.heap().exists(b); });
  EXPECT_FALSE(b_alive) << "reference-listing must reclaim b";
  rt.shutdown();
}

TEST(Threaded, DistributedCycleCollected) {
  ThreadedRuntime rt(3, threaded_config(3));
  // Build ring a(P0)→b(P1)→c(P2)→a with a rooted anchor at P0. Objects are
  // temporarily rooted during construction (the LGCs are free-running).
  std::vector<ObjectSeq> objs(3);
  for (ProcessId pid = 0; pid < 3; ++pid) {
    rt.post_sync(pid, [&, pid](Process& p) {
      objs[pid] = p.create_object();
      p.add_root(objs[pid]);
    });
  }
  ObjectSeq anchor = 0;
  rt.post_sync(0, [&](Process& p) {
    anchor = p.create_object();
    p.add_root(anchor);
    p.add_local_ref(anchor, objs[0]);
  });
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const ProcessId next = (pid + 1) % 3;
    ExportedRef er;
    rt.post_sync(next, [&](Process& p) { er = p.export_own_object(objs[next], pid); });
    rt.post_sync(pid, [&](Process& p) { p.install_ref(objs[pid], er); });
  }
  for (ProcessId pid = 0; pid < 3; ++pid) {
    rt.post_sync(pid, [&, pid](Process& p) { p.remove_root(objs[pid]); });
  }

  sleep_ms(200);
  EXPECT_EQ(total_objects(rt), 4u) << "nothing collected while rooted";

  rt.post_sync(0, [&](Process& p) { p.remove_root(anchor); });

  // Poll for convergence (free-running threads; no global clock).
  bool collected = false;
  for (int i = 0; i < 100 && !collected; ++i) {
    sleep_ms(50);
    collected = (total_objects(rt) == 0);
  }
  EXPECT_TRUE(collected) << "distributed cycle not reclaimed under threads";
  EXPECT_GE(rt.total_metrics().detections_cycle_found.get(), 1u);
  rt.shutdown();
}

TEST(Threaded, MutationChurnIsSafe) {
  ThreadedRuntime rt(3, threaded_config(4));
  // A rooted driver at P0 invokes into a 3-process ring continuously while
  // the collectors run; the ring must survive the whole time.
  std::vector<ObjectSeq> objs(3);
  for (ProcessId pid = 0; pid < 3; ++pid) {
    rt.post_sync(pid, [&, pid](Process& p) {
      objs[pid] = p.create_object();
      p.add_root(objs[pid]);  // temporary, for construction
    });
  }
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const ProcessId next = (pid + 1) % 3;
    ExportedRef er;
    rt.post_sync(next, [&](Process& p) { er = p.export_own_object(objs[next], pid); });
    rt.post_sync(pid, [&](Process& p) { p.install_ref(objs[pid], er); });
  }
  ObjectSeq driver = 0;
  RefId to_ring = kNoRef;
  ExportedRef er;
  rt.post_sync(1, [&](Process& p) { er = p.export_own_object(objs[1], 0); });
  rt.post_sync(0, [&](Process& p) {
    driver = p.create_object();
    p.add_root(driver);
    to_ring = p.install_ref(driver, er);
  });
  for (ProcessId pid = 0; pid < 3; ++pid) {
    rt.post_sync(pid, [&, pid](Process& p) { p.remove_root(objs[pid]); });
  }

  for (int i = 0; i < 30; ++i) {
    rt.post_sync(0, [&](Process& p) { p.invoke(driver, to_ring, InvokeEffect::kTouch); });
    sleep_ms(10);
    bool alive = false;
    rt.post_sync(1, [&](Process& p) { alive = p.heap().exists(objs[1]); });
    ASSERT_TRUE(alive) << "iteration " << i;
  }

  // Release: ring becomes garbage and is eventually collected.
  rt.post_sync(0, [&](Process& p) { p.remove_remote_ref(driver, to_ring); });
  bool collected = false;
  for (int i = 0; i < 100 && !collected; ++i) {
    sleep_ms(50);
    collected = (total_objects(rt) == 1);  // only the driver remains
  }
  EXPECT_TRUE(collected);
  rt.shutdown();
}

TEST(Threaded, LossyNetworkStillConverges) {
  RuntimeConfig cfg = threaded_config(5);
  cfg.net.loss_probability = 0.10;
  ThreadedRuntime rt(3, cfg);
  // One ring is collected in about a dozen control messages, so several
  // rings at once give the 10% loss enough traffic to hit.
  constexpr std::size_t kRings = 10;
  std::vector<std::vector<ObjectSeq>> rings(kRings, std::vector<ObjectSeq>(3));
  // Root the objects during construction so the free-running LGCs cannot
  // reclaim them mid-build; unroot afterwards.
  for (auto& objs : rings) {
    for (ProcessId pid = 0; pid < 3; ++pid) {
      rt.post_sync(pid, [&, pid](Process& p) {
        objs[pid] = p.create_object();
        p.add_root(objs[pid]);
      });
    }
    for (ProcessId pid = 0; pid < 3; ++pid) {
      const ProcessId next = (pid + 1) % 3;
      ExportedRef er;
      rt.post_sync(next, [&](Process& p) { er = p.export_own_object(objs[next], pid); });
      rt.post_sync(pid, [&](Process& p) { p.install_ref(objs[pid], er); });
    }
  }
  for (const auto& objs : rings) {
    for (ProcessId pid = 0; pid < 3; ++pid) {
      rt.post_sync(pid, [&, pid](Process& p) { p.remove_root(objs[pid]); });
    }
  }
  // Unrooted rings: pure distributed garbage under 10% loss.
  bool collected = false;
  for (int i = 0; i < 200 && !collected; ++i) {
    sleep_ms(50);
    collected = (total_objects(rt) == 0);
  }
  EXPECT_TRUE(collected);
  rt.shutdown();
  EXPECT_GT(rt.total_metrics().messages_lost.get(), 0u);
}

TEST(Threaded, ShutdownIsIdempotent) {
  ThreadedRuntime rt(2, threaded_config(6));
  rt.shutdown();
  rt.shutdown();
  SUCCEED();
}

}  // namespace
}  // namespace adgc
