// Composed chaos: sustained loss + duplication + reordering + rotating link
// partitions + crash rotation (the fault sweep's chaos preset), with its
// oracles asserting safety (every live sentinel reachable) and completeness
// (no garbage left) per seed — plus the backoff-vs-fixed retry-traffic
// comparison.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/sim/fault_sweep.h"

namespace adgc {
namespace {

/// Nightly CI scales the sweep without a rebuild: ADGC_SOAK_MULTIPLIER=N
/// appends N extra batches of 10 seeds each.
int soak_multiplier() {
  const char* env = std::getenv("ADGC_SOAK_MULTIPLIER");
  if (!env) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SurvivesComposedFaults) {
  const sim::FaultSweepParams p = sim::chaos_preset(GetParam());
  const sim::FaultSweepResult res = sim::run_fault_sweep(p);
  EXPECT_TRUE(res.sentinels_ok) << "SAFETY seed=" << p.seed << ": " << res.detail;
  EXPECT_TRUE(res.no_garbage) << "COMPLETENESS seed=" << p.seed << ": " << res.detail;
  EXPECT_EQ(res.crashes, res.recovered) << "a restart failed to recover";
  EXPECT_GT(res.metrics.messages_lost.get(), 0u) << "the storm did not actually bite";
}

// The acceptance bar: ≥10 seeds at 10% loss / 5% duplication with rotating
// partitions and crashes.
INSTANTIATE_TEST_SUITE_P(TenSeeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(ChaosSweep, NightlyExtraSeeds) {
  const int extra_batches = soak_multiplier() - 1;
  for (int b = 0; b < extra_batches; ++b) {
    for (std::uint64_t s = 0; s < 10; ++s) {
      const sim::FaultSweepParams p =
          sim::chaos_preset(1000 + static_cast<std::uint64_t>(b) * 10 + s);
      const sim::FaultSweepResult res = sim::run_fault_sweep(p);
      ASSERT_TRUE(res.ok()) << "seed=" << p.seed << ": " << res.detail;
    }
  }
}

// Batching changes the wire shape of the whole control plane (CDMs,
// NewSetStubs and AddScion acks ride in per-peer batch frames that are
// dropped whole on corruption or stale incarnations). The degradation
// oracles must hold in both wire shapes; one seed each way keeps the
// differential cheap — the TenSeeds sweep above already runs the
// default-on shape across ten seeds.
TEST(ChaosSweep, DegradationOraclesHoldWithAndWithoutBatching) {
  for (const bool batching : {true, false}) {
    sim::FaultSweepParams p = sim::chaos_preset(3);
    p.batching = batching;
    const sim::FaultSweepResult res = sim::run_fault_sweep(p);
    EXPECT_TRUE(res.sentinels_ok) << "SAFETY batching=" << batching << ": " << res.detail;
    EXPECT_TRUE(res.no_garbage) << "COMPLETENESS batching=" << batching << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "batching=" << batching;
    EXPECT_GT(res.metrics.messages_lost.get(), 0u) << "batching=" << batching;
  }
}

// The asynchronous snapshot pipeline defers every periodic summary publish
// by snapshot_pipeline_latency_us, so detections run against a view one
// publish older than the synchronous path would install — exactly the stale
// views §4's IC rules are built to reject. The degradation oracles must hold
// with the pipeline on and off; one seed each way keeps the differential
// cheap (TenSeeds above already storms the default-on shape).
TEST(ChaosSweep, DegradationOraclesHoldWithAndWithoutPipeline) {
  for (const bool pipeline : {true, false}) {
    sim::FaultSweepParams p = sim::chaos_preset(7);
    p.snapshot_pipeline = pipeline;
    const sim::FaultSweepResult res = sim::run_fault_sweep(p);
    EXPECT_TRUE(res.sentinels_ok)
        << "SAFETY snapshot_pipeline=" << pipeline << ": " << res.detail;
    EXPECT_TRUE(res.no_garbage)
        << "COMPLETENESS snapshot_pipeline=" << pipeline << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "snapshot_pipeline=" << pipeline;
    EXPECT_GT(res.metrics.messages_lost.get(), 0u) << "snapshot_pipeline=" << pipeline;
  }
}

// Permanent-failure eviction armed during the same storm must be a no-op:
// a peer_death_timeout comfortably above every transient silence the sweep
// injects (partitions and crash downtime are both well under a second) may
// never fire a false eviction, so the safety and completeness oracles must
// hold exactly as in the eviction-disabled baseline. Once the cycles are
// collected every sentinel link is one-way — the keeper sends NewSetStubs
// and the owner owes it nothing back — so this leg also pins that such
// silence never convicts.
TEST(ChaosSweep, EvictionArmedMatchesDisabledBaseline) {
  for (const SimTime timeout_us : {SimTime{0}, SimTime{5'000'000}}) {
    sim::FaultSweepParams p = sim::chaos_preset(5);
    p.peer_death_timeout_us = timeout_us;
    const sim::FaultSweepResult res = sim::run_fault_sweep(p);
    EXPECT_TRUE(res.sentinels_ok)
        << "SAFETY eviction_timeout_us=" << timeout_us << ": " << res.detail;
    EXPECT_TRUE(res.no_garbage)
        << "COMPLETENESS eviction_timeout_us=" << timeout_us << ": " << res.detail;
    EXPECT_EQ(res.crashes, res.recovered) << "eviction_timeout_us=" << timeout_us;
    EXPECT_EQ(res.metrics.peers_evicted.get(), 0u) << "eviction_timeout_us=" << timeout_us;
  }
}

class BackoffComparisonTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackoffComparisonTest, AdaptiveSendsFewerRetries) {
  const sim::BackoffComparison c = sim::run_backoff_comparison(GetParam());
  EXPECT_TRUE(c.adaptive_reduced())
      << "adaptive retries=" << c.adaptive_retry_messages
      << " (total=" << c.adaptive_total_messages << ")"
      << " vs fixed retries=" << c.fixed_retry_messages
      << " (total=" << c.fixed_total_messages << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackoffComparisonTest,
                         ::testing::Values(1, 4, 7));

}  // namespace
}  // namespace adgc
