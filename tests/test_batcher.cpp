// Per-peer control-message batching: flush triggers (count, size, deadline,
// priority, burst, drain), singleton stripping, arena reuse, epoch-guarded
// deadline timers, and the fault-tolerance contract — a batch from a dead
// incarnation is dropped whole, an open batch dies with its process, and a
// batch toward a crashed peer is discarded without touching the wire.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/net/batcher.h"
#include "src/net/message.h"
#include "src/rt/runtime.h"
#include "src/rt/threaded_runtime.h"
#include "src/sim/harness.h"

namespace adgc {
namespace {

AddScionAckMsg ack(std::uint64_t handshake) {
  AddScionAckMsg m;
  m.ref = make_ref_id(1, handshake);
  m.handshake = handshake;
  return m;
}

/// Fresh per-test snapshot directory under the gtest temp root.
std::string snap_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("adgc_batch_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// A listing of `refs` isolated refs 2^20 apart: each costs four bytes on
/// the wire, where a run of consecutive refs would cost two in all.
NewSetStubsMsg big_nss(std::size_t refs) {
  NewSetStubsMsg m;
  m.export_seq = 1;
  for (std::size_t i = 0; i < refs; ++i) m.live.push_back(make_ref_id(2, (i + 1) << 20));
  return m;
}

/// Minimal Env: records every outbound buffer, holds timers until the test
/// advances the clock. Overrides send_encoded so the recorded bytes are
/// exactly what the batcher flushed, framing included.
class FakeEnv final : public Env {
 public:
  struct Sent {
    ProcessId dst;
    std::vector<std::byte> bytes;
  };

  SimTime now() const override { return now_; }

  void send(ProcessId dst, const MessagePayload& msg) override {
    sent.push_back({dst, encode_message(msg)});
  }
  void send_encoded(ProcessId dst, std::vector<std::byte> bytes) override {
    sent.push_back({dst, std::move(bytes)});
  }
  void schedule(SimTime delay, std::function<void()> fn) override {
    timers.push_back({now_ + delay, std::move(fn)});
  }
  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }

  /// Fires every timer due at or before `t`, in deadline order.
  void advance_to(SimTime t) {
    now_ = t;
    // Timers may schedule more timers; loop until quiescent.
    for (bool fired = true; fired;) {
      fired = false;
      for (std::size_t i = 0; i < timers.size(); ++i) {
        if (timers[i].deadline <= now_ && !timers[i].done) {
          timers[i].done = true;
          timers[i].fn();
          fired = true;
        }
      }
    }
  }

  struct Timer {
    SimTime deadline;
    std::function<void()> fn;
    bool done = false;
  };

  std::vector<Sent> sent;
  std::vector<Timer> timers;

 private:
  SimTime now_ = 0;
  Rng rng_{1};
  Metrics metrics_;
};

class BatcherUnit : public ::testing::Test {
 protected:
  BatcherUnit() : batcher(cfg, env) {
    cfg.batch_max_msgs = 3;
    cfg.batch_max_bytes = 4096;
    cfg.batch_flush_us = 200;
  }

  /// Decodes a recorded flush as a batch and returns its items.
  std::vector<MessagePayload> items_of(const FakeEnv::Sent& s) {
    const MessagePayload msg = decode_message(s.bytes);
    const BatchMsg* batch = std::get_if<BatchMsg>(&msg);
    EXPECT_NE(batch, nullptr) << "flush was not batch-framed";
    if (!batch) return {};
    return decode_batch_items(*batch);
  }

  ProcessConfig cfg;
  FakeEnv env;
  Batcher batcher;
};

TEST_F(BatcherUnit, BatchableKinds) {
  EXPECT_TRUE(Batcher::batchable(MessagePayload{CdmMsg{}}));
  EXPECT_TRUE(Batcher::batchable(MessagePayload{NewSetStubsMsg{}}));
  EXPECT_TRUE(Batcher::batchable(MessagePayload{AddScionAckMsg{}}));
  EXPECT_FALSE(Batcher::batchable(MessagePayload{InvokeMsg{}}));
  EXPECT_FALSE(Batcher::batchable(MessagePayload{ReplyMsg{}}));
  EXPECT_FALSE(Batcher::batchable(MessagePayload{AddScionMsg{}}));
  EXPECT_FALSE(Batcher::batchable(MessagePayload{NssSolicitMsg{}}));
  // A batch is not itself batchable: no nesting.
  EXPECT_FALSE(Batcher::batchable(MessagePayload{BatchMsg{}}));
}

TEST_F(BatcherUnit, CountThresholdFlush) {
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(2)}));
  EXPECT_EQ(env.sent.size(), 0u) << "flushed below the count threshold";
  EXPECT_EQ(batcher.queued(1), 2u);
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(3)}));

  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].dst, 1u);
  EXPECT_EQ(batcher.open_batches(), 0u);
  const auto items = items_of(env.sent[0]);
  ASSERT_EQ(items.size(), 3u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto* got = std::get_if<AddScionAckMsg>(&items[i]);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->handshake, i + 1);
  }
  EXPECT_EQ(env.metrics().batch_flush_count.get(), 1u);
  EXPECT_EQ(env.metrics().batches_sent.get(), 1u);
  EXPECT_EQ(env.metrics().batched_messages.get(), 3u);
  EXPECT_GT(env.metrics().batch_bytes_saved.get(), 0u);
}

TEST_F(BatcherUnit, SizeThresholdFlush) {
  cfg.batch_max_bytes = 256;
  cfg.batch_max_msgs = 100;  // keep the count threshold out of the way
  // Each NSS below is ~90 bytes encoded; the third pushes past 256.
  const std::size_t item = encode_message(MessagePayload{big_nss(20)}).size();
  ASSERT_GT(item, 80u);
  ASSERT_LT(item, 110u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(batcher.offer(1, MessagePayload{big_nss(20)}));
  }
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.metrics().batch_flush_size.get(), 1u);
  EXPECT_EQ(items_of(env.sent[0]).size(), 3u);
}

TEST_F(BatcherUnit, DeadlineFlushAndSingletonStrip) {
  EXPECT_TRUE(batcher.offer(2, MessagePayload{ack(7)}));
  env.advance_to(cfg.batch_flush_us - 1);
  EXPECT_EQ(env.sent.size(), 0u) << "deadline fired early";
  env.advance_to(cfg.batch_flush_us);

  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.metrics().batch_flush_deadline.get(), 1u);
  // A lone message is stripped back to its plain encoding: the wire sees an
  // AddScionAck, not a one-item batch.
  const MessagePayload msg = decode_message(env.sent[0].bytes);
  const auto* got = std::get_if<AddScionAckMsg>(&msg);
  ASSERT_NE(got, nullptr) << "singleton was not stripped of batch framing";
  EXPECT_EQ(got->handshake, 7u);
  EXPECT_EQ(env.metrics().batch_singletons.get(), 1u);
  EXPECT_EQ(env.metrics().batches_sent.get(), 0u);
  EXPECT_EQ(env.metrics().batch_bytes_saved.get(), 0u);
}

TEST_F(BatcherUnit, StaleDeadlineDoesNotFlushReopenedBatch) {
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));
  batcher.flush_peer(1, Batcher::FlushReason::kPriority);
  ASSERT_EQ(env.sent.size(), 1u);

  // Re-open toward the same peer LATER, so the two deadlines are distinct;
  // when the FIRST batch's deadline fires, the epoch guard must keep it
  // from flushing the new batch early.
  env.advance_to(cfg.batch_flush_us / 2);  // nothing due yet
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(2)}));
  env.advance_to(cfg.batch_flush_us);  // first deadline due, second not yet
  EXPECT_EQ(batcher.queued(1), 1u) << "stale deadline flushed the new batch";
  EXPECT_EQ(env.sent.size(), 1u);

  // The new batch's own deadline still works.
  env.advance_to(cfg.batch_flush_us / 2 + cfg.batch_flush_us);
  EXPECT_EQ(env.sent.size(), 2u);
}

TEST_F(BatcherUnit, FlushAllDrainsEveryPeer) {
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));
  EXPECT_TRUE(batcher.offer(2, MessagePayload{ack(2)}));
  EXPECT_TRUE(batcher.offer(2, MessagePayload{ack(3)}));
  EXPECT_EQ(batcher.open_batches(), 2u);
  batcher.flush_all(Batcher::FlushReason::kDrain);
  EXPECT_EQ(batcher.open_batches(), 0u);
  EXPECT_EQ(env.sent.size(), 2u);
  EXPECT_EQ(env.metrics().batch_flush_drain.get(), 2u);
}

TEST_F(BatcherUnit, CdmFlushTouchesOnlyCdmBearingBatches) {
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));       // no CDM
  EXPECT_TRUE(batcher.offer(2, MessagePayload{CdmMsg{}}));     // CDM
  EXPECT_TRUE(batcher.offer(2, MessagePayload{ack(2)}));       // rides along
  batcher.flush_cdm_batches(Batcher::FlushReason::kBurst);
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].dst, 2u);
  EXPECT_EQ(items_of(env.sent[0]).size(), 2u);
  EXPECT_EQ(batcher.queued(1), 1u) << "CDM-free batch flushed by burst";
  EXPECT_EQ(env.metrics().batch_flush_burst.get(), 1u);
}

TEST_F(BatcherUnit, DiscardPeerDropsBatchWithoutSending) {
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(2)}));
  batcher.discard_peer(1);
  EXPECT_EQ(batcher.open_batches(), 0u);
  EXPECT_EQ(env.sent.size(), 0u);
  // The discarded buffer returns to the arena: the next batch reuses it.
  EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(3)}));
  EXPECT_EQ(env.metrics().arena_reuses.get(), 1u);
}

TEST_F(BatcherUnit, ArenaReusesFlushedCapacity) {
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(1)}));
    EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(2)}));
    batcher.flush_peer(1, Batcher::FlushReason::kDrain);
  }
  EXPECT_EQ(env.metrics().arena_acquires.get(), 4u);
  // Flushed buffers leave with the Envelope, but note_capacity teaches the
  // arena the working size; after the discard-free steady state at least the
  // reserve hint must have grown past the default.
  EXPECT_GE(env.sent.size(), 4u);
}

TEST_F(BatcherUnit, DisabledBatchingPassesThrough) {
  cfg.batching_enabled = false;
  EXPECT_FALSE(batcher.offer(1, MessagePayload{ack(1)}));
  EXPECT_FALSE(batcher.offer(1, MessagePayload{CdmMsg{}}));
  EXPECT_EQ(batcher.open_batches(), 0u);
  EXPECT_EQ(env.sent.size(), 0u);
}

TEST_F(BatcherUnit, SplitAcrossThresholdKeepsEveryMessage) {
  for (std::uint64_t i = 1; i <= 7; ++i) {
    EXPECT_TRUE(batcher.offer(1, MessagePayload{ack(i)}));
  }
  batcher.flush_all(Batcher::FlushReason::kDrain);
  std::size_t total = 0;
  std::vector<bool> seen(8, false);
  for (const auto& s : env.sent) {
    const MessagePayload msg = decode_message(s.bytes);
    if (const auto* batch = std::get_if<BatchMsg>(&msg)) {
      for (const auto& item : decode_batch_items(*batch)) {
        seen[std::get<AddScionAckMsg>(item).handshake] = true;
        ++total;
      }
    } else {
      seen[std::get<AddScionAckMsg>(msg).handshake] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, 7u);
  for (std::uint64_t i = 1; i <= 7; ++i) EXPECT_TRUE(seen[i]) << "lost ack " << i;
}

// ---------------------------------------------------------------------------
// Integration: the batcher inside Process under the simulated runtime.
// ---------------------------------------------------------------------------

TEST(BatcherSim, DeadlineFlushDeliversNewSetStubs) {
  Runtime rt(2, sim::manual_config(21));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(1).add_root(b.seq);
  const RefId ref = rt.link(a, b);

  rt.proc(0).run_lgc();  // NSS toward P1 enters the batcher
  rt.run_for(50'000);    // deadline (batch_flush_us) fires in sim time
  EXPECT_TRUE(rt.proc(1).scions().find(ref)->confirmed)
      << "batched NewSetStubs never reached the owner";
  EXPECT_GE(rt.total_metrics().batch_flush_deadline.get(), 1u);
  // Lone NSS rides as a stripped singleton, not a batch frame.
  EXPECT_GE(rt.total_metrics().batch_singletons.get(), 1u);
}

TEST(BatcherSim, PriorityInvokeFlushesOpenBatchFirst) {
  Runtime rt(2, sim::manual_config(22));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(1).add_root(b.seq);
  const RefId ref = rt.link(a, b);
  rt.run_for(10'000);

  rt.proc(0).run_lgc();  // opens a batch toward P1 (NSS queued)
  ASSERT_EQ(rt.proc(0).batcher().queued(1), 1u);
  // The invocation is latency-critical and unbatchable: it must force the
  // open batch out first so per-link order is preserved.
  rt.proc(0).invoke(a.seq, ref, InvokeEffect::kTouch);
  EXPECT_EQ(rt.proc(0).batcher().queued(1), 0u);
  EXPECT_GE(rt.total_metrics().batch_flush_priority.get(), 1u);

  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).scions().find(ref)->confirmed);
  EXPECT_EQ(rt.proc(1).scions().find(ref)->ic, 2u);
}

TEST(BatcherSim, InFlightBatchFromDeadIncarnationDroppedWhole) {
  RuntimeConfig cfg = sim::manual_config(23);
  cfg.proc.snapshot_dir = snap_dir("stale");
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(0).take_snapshot();  // restart needs something to recover

  // Hand-queue a multi-message batch and put it on the wire, then crash the
  // sender before delivery. The restarted incarnation invalidates the
  // envelope's stamp, so the WHOLE batch must vanish — no item may apply.
  rt.proc(0).batcher().offer(1, MessagePayload{ack(1001)});
  rt.proc(0).batcher().offer(1, MessagePayload{ack(1002)});
  rt.proc(0).flush_batches();
  rt.crash(0);
  EXPECT_TRUE(rt.restart(0));
  rt.run_for(200'000);

  EXPECT_GE(rt.net_metrics().messages_stale_incarnation.get(), 1u)
      << "the dead incarnation's batch was delivered";
  EXPECT_EQ(rt.total_metrics().batches_received.get(), 0u);
  EXPECT_EQ(rt.total_metrics().batch_messages_received.get(), 0u)
      << "items from a stale batch leaked through";
}

TEST(BatcherSim, OpenBatchDiesWithCrashNoDuplicateApplication) {
  RuntimeConfig cfg = sim::manual_config(24);
  cfg.proc.snapshot_dir = snap_dir("crash");
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(0).take_snapshot();

  // Queue without flushing: the batch is volatile Process state.
  rt.proc(0).batcher().offer(1, MessagePayload{ack(2001)});
  rt.proc(0).batcher().offer(1, MessagePayload{ack(2002)});
  ASSERT_EQ(rt.proc(0).batcher().queued(1), 2u);
  rt.crash(0);
  EXPECT_TRUE(rt.restart(0));
  rt.run_for(200'000);

  // Nothing was ever wired, so nothing may arrive — batched control traffic
  // is loss-tolerant, never retransmitted from a recovered incarnation.
  EXPECT_EQ(rt.total_metrics().batch_messages_received.get(), 0u);
  EXPECT_EQ(rt.proc(0).batcher().open_batches(), 0u);
}

TEST(BatcherSim, PeerCrashDiscardsOpenBatchTowardIt) {
  RuntimeConfig cfg = sim::manual_config(25);
  cfg.proc.snapshot_dir = snap_dir("peercrash");
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(a.seq);

  rt.proc(0).batcher().offer(1, MessagePayload{ack(3001)});
  ASSERT_EQ(rt.proc(0).batcher().open_batches(), 1u);
  rt.crash(1);  // peers get on_peer_crashed
  EXPECT_EQ(rt.proc(0).batcher().open_batches(), 0u)
      << "batch toward the crashed peer not discarded";
}

TEST(BatcherSim, DisabledConfigMatchesUnbatchedWire) {
  RuntimeConfig cfg = sim::manual_config(26);
  cfg.proc.batching_enabled = false;
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(1).add_root(b.seq);
  const RefId ref = rt.link(a, b);

  rt.proc(0).run_lgc();
  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).scions().find(ref)->confirmed);
  EXPECT_EQ(rt.total_metrics().batches_sent.get(), 0u);
  EXPECT_EQ(rt.total_metrics().batch_singletons.get(), 0u);
  EXPECT_EQ(rt.total_metrics().batched_messages.get(), 0u);
}

// ---------------------------------------------------------------------------
// Integration: wall-clock deadline under the threaded runtime.
// ---------------------------------------------------------------------------

TEST(BatcherThreaded, WallClockDeadlineFlush) {
  RuntimeConfig cfg;
  cfg.seed = 31;
  // Keep the periodic collectors quiet; this test drives the batcher alone.
  cfg.proc.lgc_period_us = 10'000'000;
  cfg.proc.snapshot_period_us = 10'000'000;
  cfg.proc.dcda_scan_period_us = 10'000'000;
  cfg.proc.batch_flush_us = 10'000;  // 10ms wall-clock deadline
  ThreadedRuntime rt(2, cfg);

  // An unknown-handshake ack is ignored by the receiver; what matters is
  // that the wall-clock timer pushes it out without any other traffic.
  rt.post_sync(0, [](Process& p) {
    p.batcher().offer(1, MessagePayload{ack(4001)});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::size_t open = 1;
  rt.post_sync(0, [&](Process& p) { open = p.batcher().open_batches(); });
  rt.shutdown();

  EXPECT_EQ(open, 0u) << "wall-clock deadline never flushed the batch";
  EXPECT_GE(rt.total_metrics().batch_flush_deadline.get(), 1u);
  EXPECT_GE(rt.total_metrics().batch_singletons.get(), 1u);
}

}  // namespace
}  // namespace adgc
