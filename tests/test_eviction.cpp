// Permanent-failure eviction tests.
//
// The fault model extension (docs/FAULT_MODEL.md): sustained suspicion past
// `peer_death_timeout` commits a peer dead locally — every scion it held is
// dropped, every stub toward it retired, and an incarnation tombstone
// rejects its stale traffic with an Evicted NACK until a strictly newer
// incarnation shows up. The properties checked here:
//   * tombstones record the highest evicted incarnation and outlive the
//     peer's health slot; idle slots are pruned, suspected ones retained;
//   * the sticky suspected count falls again when a peer recovers;
//   * evict_peer() purges stubs, scions and the health slot in one step,
//     strips every field holding a dead reference, and the stranded garbage
//     it unpins is reclaimed by the next LGC;
//   * a zombie (evicted but still running) is NACKed into self_evicted and
//     a fresh incarnation is readmitted and fully functional;
//   * a silent dead peer is evicted automatically after the timeout, and a
//     live owner that only receives from its holder never is;
//   * the fault sweep's eviction preset reclaims every stranded stub/scion
//     in bounded time without touching live sentinels;
//   * the model checker finds no safety violation in the evict scenario's
//     schedule space while actually exercising evictions.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/mc/explorer.h"
#include "src/mc/strategy.h"
#include "src/net/peer_health.h"
#include "src/sim/fault_sweep.h"
#include "src/sim/harness.h"

namespace adgc {
namespace {

std::string snap_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("adgc_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

class TombstoneTest : public ::testing::Test {
 protected:
  ProcessConfig cfg;
  Metrics metrics;
  PeerHealthTracker tracker{cfg, metrics};
};

TEST_F(TombstoneTest, KeepsHighestIncarnationAndOutlivesSlot) {
  tracker.on_heard(1, 100);
  tracker.record_eviction(1, 3);
  ASSERT_TRUE(tracker.evicted_incarnation(1).has_value());
  EXPECT_EQ(*tracker.evicted_incarnation(1), 3u);

  // Dropping the health slot must not drop the tombstone: the slot is
  // bookkeeping, the tombstone is a safety commitment.
  tracker.erase_peer(1);
  EXPECT_FALSE(tracker.known_peers().contains(1));
  ASSERT_TRUE(tracker.evicted_incarnation(1).has_value());

  tracker.record_eviction(1, 2);  // stale re-eviction: ignored
  EXPECT_EQ(*tracker.evicted_incarnation(1), 3u);
  tracker.record_eviction(1, 5);
  EXPECT_EQ(*tracker.evicted_incarnation(1), 5u);

  tracker.clear_tombstone(1);
  EXPECT_FALSE(tracker.evicted_incarnation(1).has_value());
}

TEST_F(TombstoneTest, SuspectedCountFallsOnRecovery) {
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures; ++i) {
    tracker.on_timeout(1, 100 + i);
  }
  ASSERT_TRUE(tracker.suspected(1, 200));
  EXPECT_EQ(tracker.suspected_count(), 1u);
  EXPECT_EQ(tracker.suspected_since(1), 200u);

  // Any sign of life clears the sticky flag immediately — no re-query of
  // suspected() needed for the count (and the death-timeout clock) to fall.
  tracker.on_heard(1, 300);
  EXPECT_EQ(tracker.suspected_count(), 0u);
  EXPECT_EQ(tracker.suspected_since(1), 0u);
}

TEST_F(TombstoneTest, IdleSlotsPrunedSuspectedRetained) {
  tracker.on_send(1, 1000);
  tracker.on_send(2, 1000);
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures; ++i) {
    tracker.on_timeout(2, 1100 + i);
  }
  ASSERT_TRUE(tracker.suspected(2, 1200));
  ASSERT_EQ(tracker.size(), 2u);

  // Peer 1 has been idle for far longer than the bound; peer 2 is just as
  // idle but suspected — a suspected slot is evidence, not garbage.
  EXPECT_EQ(tracker.prune_idle(10'000'000, 1'000'000), 1u);
  EXPECT_EQ(tracker.size(), 1u);
  EXPECT_TRUE(tracker.known_peers().contains(2));
}

/// Rooted holder at P0 with a remote reference to an unrooted target at P1.
struct LiveRef {
  ObjectId holder_obj;
  ObjectId target_obj;
  RefId ref = kNoRef;
};

LiveRef build_live_ref(Runtime& rt, ProcessId holder, ProcessId owner) {
  LiveRef lr;
  lr.holder_obj = ObjectId{holder, rt.proc(holder).create_object()};
  lr.target_obj = ObjectId{owner, rt.proc(owner).create_object()};
  rt.proc(holder).add_root(lr.holder_obj.seq);
  lr.ref = rt.link(lr.holder_obj, lr.target_obj);
  return lr;
}

TEST(Eviction, EvictPurgesBothDirectionsAndUnpinsGarbage) {
  RuntimeConfig cfg = sim::fast_config(11);
  Runtime rt(2, cfg);
  const LiveRef lr = build_live_ref(rt, 0, 1);
  rt.run_for(300'000);
  ASSERT_TRUE(rt.proc(0).stubs().contains(lr.ref));
  ASSERT_TRUE(rt.proc(1).scions().contains(lr.ref));

  // Holder side: evicting the owner retires the stub and tombstones it.
  rt.proc(0).evict_peer(1);
  EXPECT_FALSE(rt.proc(0).stubs().contains(lr.ref));
  EXPECT_TRUE(rt.proc(0).peer_health().evicted_incarnation(1).has_value());
  EXPECT_EQ(rt.proc(0).metrics().peers_evicted.get(), 1u);
  EXPECT_GE(rt.proc(0).metrics().eviction_stubs_retired.get(), 1u);
  EXPECT_FALSE(rt.proc(0).peer_health().known_peers().contains(1));

  // Owner side: evicting the holder drops its scion, leaving the unrooted
  // target to the next LGC — the stranded garbage is actually reclaimed.
  rt.proc(1).evict_peer(0);
  EXPECT_FALSE(rt.proc(1).scions().contains(lr.ref));
  EXPECT_GE(rt.proc(1).metrics().eviction_scions_dropped.get(), 1u);
  rt.run_for(500'000);
  EXPECT_FALSE(rt.proc(1).heap().exists(lr.target_obj.seq))
      << "dropping the evicted holder's scion must unpin the target";
}

// Every field holding a reference into the evicted peer loses it, in every
// holder; a reference toward another peer keeps its field and holder count.
TEST(Eviction, EvictStripsDeadRefsFromEveryHolder) {
  Runtime rt(3, sim::manual_config(13));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{0, rt.proc(0).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(0).add_root(b.seq);
  const RefId dead1 = rt.link(a, ObjectId{1, rt.proc(1).create_object()});
  const RefId dead2 = rt.link(a, ObjectId{1, rt.proc(1).create_object()});
  const RefId live = rt.link(a, ObjectId{2, rt.proc(2).create_object()});
  rt.proc(0).hold_existing_ref(b.seq, dead2);
  ASSERT_EQ(rt.proc(0).stubs().find(dead2)->holders, 2u);

  rt.proc(0).evict_peer(1);

  EXPECT_EQ(rt.proc(0).heap().find(a.seq)->remote_fields, std::vector<RefId>{live});
  EXPECT_TRUE(rt.proc(0).heap().find(b.seq)->remote_fields.empty());
  EXPECT_FALSE(rt.proc(0).stubs().contains(dead1));
  EXPECT_FALSE(rt.proc(0).stubs().contains(dead2));
  EXPECT_EQ(rt.proc(0).metrics().eviction_stubs_retired.get(), 2u);
  ASSERT_TRUE(rt.proc(0).stubs().contains(live));
  EXPECT_EQ(rt.proc(0).stubs().find(live)->holders, 1u);
}

TEST(Eviction, ZombieIsNackedAndFreshIncarnationReadmitted) {
  RuntimeConfig cfg = sim::fast_config(12);
  cfg.proc.snapshot_dir = snap_dir("evict_readmit");
  Runtime rt(2, cfg);
  // P1 roots H -> X owned by P0; X is also rooted at P0 so eviction drops
  // only the scion, not the object (a false positive must cost the evicted
  // peer its incarnation, never the owner its live data).
  const LiveRef lr = build_live_ref(rt, 1, 0);
  rt.proc(0).add_root(lr.target_obj.seq);
  rt.run_for(500'000);  // handshake done, snapshots durable

  rt.proc(0).evict_peer(1);
  EXPECT_FALSE(rt.proc(1).self_evicted());

  // The zombie keeps talking (periodic NSS, plus an explicit invoke): every
  // message is rejected and the NACK tells it to restart.
  rt.proc(1).invoke(lr.holder_obj.seq, lr.ref, InvokeEffect::kTouch);
  rt.run_for(400'000);
  EXPECT_TRUE(rt.proc(1).self_evicted());
  EXPECT_GE(rt.proc(0).metrics().messages_rejected_evicted.get(), 1u);
  EXPECT_GE(rt.proc(0).metrics().eviction_nacks_sent.get(), 1u);
  EXPECT_GE(rt.proc(1).metrics().eviction_nacks_received.get(), 1u);
  EXPECT_TRUE(rt.proc(0).peer_health().evicted_incarnation(1).has_value());

  // Restart under a fresh incarnation: its first message clears the
  // tombstone and the pair is fully functional again.
  rt.crash(1);
  ASSERT_TRUE(rt.restart(1));
  rt.run_for(1'000'000);
  EXPECT_FALSE(rt.proc(1).self_evicted());
  EXPECT_FALSE(rt.proc(0).peer_health().evicted_incarnation(1).has_value())
      << "a strictly newer incarnation must be readmitted";

  const LiveRef fresh = build_live_ref(rt, 1, 0);
  const auto received_before = rt.proc(0).metrics().invocations_received.get();
  rt.proc(1).invoke(fresh.holder_obj.seq, fresh.ref, InvokeEffect::kTouch);
  rt.run_for(200'000);
  EXPECT_GT(rt.proc(0).metrics().invocations_received.get(), received_before);
}

TEST(Eviction, SilentDeadPeerEvictedAfterTimeout) {
  RuntimeConfig cfg = sim::fast_config(21);
  cfg.proc.peer_death_timeout_us = 400'000;
  Runtime rt(2, cfg);
  // Both directions: P0 holds a stub toward P1 AND a scion held by P1, so
  // the crash strands state on both tables of the survivor.
  const LiveRef out = build_live_ref(rt, 0, 1);
  const LiveRef in = build_live_ref(rt, 1, 0);
  rt.run_for(400'000);
  ASSERT_TRUE(rt.proc(0).stubs().contains(out.ref));
  ASSERT_TRUE(rt.proc(0).scions().contains(in.ref));

  rt.crash(1);  // forever
  rt.run_for(3'000'000);

  EXPECT_GE(rt.proc(0).metrics().peers_evicted.get(), 1u);
  EXPECT_TRUE(rt.proc(0).peer_health().evicted_incarnation(1).has_value());
  EXPECT_FALSE(rt.proc(0).stubs().contains(out.ref))
      << "stub toward the dead peer never retired";
  EXPECT_FALSE(rt.proc(0).scions().contains(in.ref))
      << "scion held by the dead peer never dropped";
  EXPECT_FALSE(rt.proc(0).heap().exists(in.target_obj.seq))
      << "object kept alive only by the dead peer's scion never reclaimed";
  // The eviction also released the victim's health slot (gauge falls to 0).
  EXPECT_EQ(rt.proc(0).metrics().peer_health_slots.get(), 0u);
}

// A holder that stops invoking leaves one-way traffic: it sends the owner a
// NewSetStubs every LGC and the owner owes it no answer. That silence is no
// evidence of death, so the owner must never be convicted for it.
TEST(Eviction, OneWayHolderNeverConvictsHealthyOwner) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RuntimeConfig cfg = sim::fast_config(seed);
    cfg.proc.peer_death_timeout_us = 1'000'000;
    Runtime rt(2, cfg);
    const LiveRef lr = build_live_ref(rt, 0, 1);
    rt.proc(0).invoke(lr.holder_obj.seq, lr.ref, InvokeEffect::kTouch, {}, /*want_reply=*/true);
    rt.run_for(5'000'000);

    EXPECT_EQ(rt.total_metrics().peers_evicted.get(), 0u) << "seed=" << seed;
    EXPECT_TRUE(rt.proc(0).stubs().contains(lr.ref)) << "seed=" << seed;
    EXPECT_FALSE(rt.proc(1).self_evicted()) << "seed=" << seed;
    EXPECT_TRUE(sim::global_live_set(rt).contains(lr.target_obj))
        << "seed=" << seed << ": the holder's field was stripped";
  }
}

class EvictionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvictionSweep, StrandedStateReclaimedWithinBound) {
  const sim::FaultSweepParams p = sim::eviction_preset(GetParam());
  const sim::FaultSweepResult res = sim::run_fault_sweep(p);
  EXPECT_TRUE(res.ok()) << "seed=" << p.seed << ": " << res.detail;
  const Metrics& m = res.metrics;
  EXPECT_GE(m.peers_evicted.get(), 1u);
  EXPECT_GE(m.eviction_stubs_retired.get() + m.eviction_scions_dropped.get(), 1u);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, EvictionSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// Exhaustive delay-bounded search over the armed-eviction scenario: every
// schedule deviating from the default order by at most the bound is run —
// that envelope covers all interleavings of the NssSolicit probes, the
// holder's (possibly empty) NewSetStubs answers, script invokes and
// collector runs. The full eviction escalation (arm watch → solicit →
// strike → convict, four LGC decisions spaced by clock-advancing
// deliveries) costs more deviation than the bound, so eviction commits are
// asserted by the randomized deep search below; here the value is the
// exhaustiveness: the search must complete the whole bounded tree without
// a safety violation.
TEST(EvictionMc, DelayBoundedSearchIsExhaustivelySafe) {
  mc::ExplorerOptions opts;
  opts.scenario = mc::ScenarioKind::kEvict;
  opts.seed = 1;
  opts.max_steps = 20;
  opts.max_schedules = 15'000;
  opts.collector_budget = 6;
  mc::Explorer explorer(opts);
  mc::DfsStrategy dfs(/*delay_bound=*/4);
  const mc::ExploreResult res = explorer.explore(dfs);
  EXPECT_FALSE(res.failure.has_value())
      << "violation: " << *res.failure->violation;
  EXPECT_TRUE(dfs.exhausted()) << "bound not fully enumerated; raise max_schedules";
}

// Randomized deep schedules: PCT reaches past the delay bound and must both
// commit evictions (a sweep that never evicts is not testing the subsystem)
// and deliver pre-eviction traffic after the tombstone is in place — the
// Evicted-NACK path — without ever tripping the safety oracle.
TEST(EvictionMc, RandomizedSchedulesCommitEvictionsSafely) {
  mc::ExplorerOptions opts;
  opts.scenario = mc::ScenarioKind::kEvict;
  opts.seed = 7;
  opts.max_steps = 50;
  opts.max_schedules = 400;
  opts.collector_budget = 8;
  mc::Explorer explorer(opts);
  mc::PctStrategy pct(opts.seed, /*change_points=*/3, opts.max_steps);
  const mc::ExploreResult res = explorer.explore(pct);
  EXPECT_FALSE(res.failure.has_value())
      << "violation: " << *res.failure->violation;
  EXPECT_GT(res.peers_evicted, 0u) << "the search never exercised an eviction";
}

}  // namespace
}  // namespace adgc
