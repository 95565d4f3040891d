// Unit tests for the per-peer failure tracker and the jittered exponential
// backoff underneath the adaptive-degradation layer.
#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/peer_health.h"

namespace adgc {
namespace {

class PeerHealthTest : public ::testing::Test {
 protected:
  ProcessConfig cfg;
  Metrics metrics;
  PeerHealthTracker tracker{cfg, metrics};
};

TEST_F(PeerHealthTest, FreshPeerIsHealthy) {
  EXPECT_FALSE(tracker.suspected(1));
  EXPECT_EQ(tracker.consecutive_failures(1), 0u);
  EXPECT_EQ(tracker.last_heard(1), 0u);
}

TEST_F(PeerHealthTest, ConsecutiveTimeoutsSuspect) {
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures - 1; ++i) {
    tracker.on_timeout(1, 100 * (i + 1));
    EXPECT_FALSE(tracker.suspected(1));
  }
  tracker.on_timeout(1, 1000);
  EXPECT_TRUE(tracker.suspected(1));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
  // The transition counter counts edges, not verdicts.
  EXPECT_TRUE(tracker.suspected(1));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
}

TEST_F(PeerHealthTest, AnySignOfLifeClearsSuspicion) {
  for (int i = 0; i < 5; ++i) tracker.on_timeout(1, 100);
  ASSERT_TRUE(tracker.suspected(1));
  tracker.on_heard(1, 600);
  EXPECT_FALSE(tracker.suspected(1));
  EXPECT_EQ(tracker.last_heard(1), 600u);
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
  // Suspecting again is a new transition.
  for (int i = 0; i < 5; ++i) tracker.on_timeout(1, 800);
  EXPECT_TRUE(tracker.suspected(1));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 2u);
}

// The transition is counted when the failure that crosses the threshold
// happens, so the counter reads the same whether or not anyone asks.
TEST_F(PeerHealthTest, TransitionsCountedWithoutQueries) {
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures + 5; ++i) {
    tracker.on_timeout(1, 100 * (i + 1));
  }
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
}

TEST(BackoffDelayTest, GrowsExponentiallyWithinJitterBounds) {
  Rng rng(7);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const SimTime d = SimTime{1000} << attempt;
    for (int i = 0; i < 200; ++i) {
      const SimTime delay = backoff_delay(1000, 1'000'000, attempt, rng);
      EXPECT_GE(delay, d / 2) << "attempt " << attempt;
      EXPECT_LT(delay, d) << "attempt " << attempt;
    }
  }
}

TEST(BackoffDelayTest, CapsAtConfiguredCeiling) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const SimTime delay = backoff_delay(1000, 8000, 30, rng);
    EXPECT_GE(delay, 4000u);
    EXPECT_LT(delay, 8000u);
  }
}

TEST(BackoffDelayTest, DeterministicForSameRngState) {
  Rng a(99), b(99);
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(backoff_delay(500, 100'000, attempt, a),
              backoff_delay(500, 100'000, attempt, b));
  }
}

TEST(BackoffDelayTest, ZeroBaseStillMakesProgress) {
  Rng rng(1);
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_GE(backoff_delay(0, 1000, attempt, rng), 1u);
  }
}

}  // namespace
}  // namespace adgc
