// Unit tests for the per-peer health tracker and the jittered exponential
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
  EXPECT_FALSE(tracker.suspected(1, 1'000'000));
  EXPECT_EQ(tracker.outstanding(1), 0u);
  EXPECT_EQ(tracker.consecutive_failures(1), 0u);
  EXPECT_DOUBLE_EQ(tracker.srtt_us(1), 0.0);
}

TEST_F(PeerHealthTest, EwmaFoldsRttSamples) {
  tracker.on_response(1, 1000, 10);
  EXPECT_DOUBLE_EQ(tracker.srtt_us(1), 1000.0);  // first sample taken whole
  tracker.on_response(1, 2000, 20);
  // alpha = 0.2: 0.2*2000 + 0.8*1000 = 1200.
  EXPECT_DOUBLE_EQ(tracker.srtt_us(1), 1200.0);
}

TEST_F(PeerHealthTest, ConsecutiveTimeoutsSuspect) {
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures - 1; ++i) {
    tracker.on_timeout(1, 100 * (i + 1));
    EXPECT_FALSE(tracker.suspected(1, 100 * (i + 1)));
  }
  tracker.on_timeout(1, 1000);
  EXPECT_TRUE(tracker.suspected(1, 1000));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
  // The transition counter counts edges, not verdicts.
  EXPECT_TRUE(tracker.suspected(1, 1100));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
}

TEST_F(PeerHealthTest, AnySignOfLifeClearsSuspicion) {
  for (int i = 0; i < 5; ++i) tracker.on_timeout(1, 100);
  ASSERT_TRUE(tracker.suspected(1, 500));
  tracker.on_heard(1, 600);
  EXPECT_FALSE(tracker.suspected(1, 700));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 1u);
  // Suspecting again is a new transition.
  for (int i = 0; i < 5; ++i) tracker.on_timeout(1, 800);
  EXPECT_TRUE(tracker.suspected(1, 900));
  EXPECT_EQ(metrics.peer_suspect_transitions.get(), 2u);
}

TEST_F(PeerHealthTest, AccrualSuspectsSilentPeerOnlyWhileContacting) {
  // Establish an RTT baseline and a last-heard time.
  tracker.on_response(1, 1000, 1000);
  // Idle peer: no outstanding traffic, arbitrarily long silence is fine.
  EXPECT_FALSE(tracker.suspected(1, 1'000'000'000));
  // Outstanding traffic + silence beyond phi * max(srtt, floor) suspects.
  tracker.on_send(1, 1000);
  const double srtt = std::max(tracker.srtt_us(1),
                               static_cast<double>(kSuspectRttFloorUs));
  const SimTime limit = 1000 + static_cast<SimTime>(kSuspectPhi * srtt);
  EXPECT_FALSE(tracker.suspected(1, limit));     // at the bound: not yet
  EXPECT_TRUE(tracker.suspected(1, limit + 1));  // past it: suspected
}

TEST_F(PeerHealthTest, NeverHeardPeerSuspectedOnlyByTimeouts) {
  // A peer that was down from the start: we send and send but it never
  // answers. Phi accrual stays off — there is no observed RTT to accrue
  // against, and suspecting every cold peer on a clock delays collection —
  // so suspicion comes from the explicit retry-timeout half instead.
  for (int i = 0; i < 1000; ++i) tracker.on_send(1, 5000);
  EXPECT_EQ(tracker.outstanding(1), 1000u);
  EXPECT_FALSE(tracker.suspected(1, 1'000'000'000));
  EXPECT_DOUBLE_EQ(tracker.phi(1, 1'000'000'000), 0.0);
  for (std::uint32_t i = 0; i < cfg.suspect_after_failures; ++i) {
    tracker.on_timeout(1, 6000 + i);
  }
  EXPECT_TRUE(tracker.suspected(1, 7000));
}

TEST_F(PeerHealthTest, IdleGapDoesNotCountAsSilence) {
  // Heard long ago, then idle (nothing outstanding), then we resume
  // sending at a wall-clock time far past last_heard. Silence must accrue
  // from the resume, not across the idle gap — otherwise every first send
  // after an idle period instantly suspects the peer under wall clocks.
  tracker.on_response(1, 1000, 1000);
  tracker.on_send(1, 500'000'000);  // resume after ~500s idle
  EXPECT_FALSE(tracker.suspected(1, 500'000'001));
  const double srtt = std::max(tracker.srtt_us(1),
                               static_cast<double>(kSuspectRttFloorUs));
  const SimTime limit = 500'000'000 + static_cast<SimTime>(kSuspectPhi * srtt);
  EXPECT_FALSE(tracker.suspected(1, limit));
  EXPECT_TRUE(tracker.suspected(1, limit + 1));
}

TEST_F(PeerHealthTest, OutstandingWindowResetsOnLife) {
  for (int i = 0; i < 10; ++i) tracker.on_send(1, 10);
  EXPECT_EQ(tracker.outstanding(1), 10u);
  tracker.on_heard(1, 50);
  EXPECT_EQ(tracker.outstanding(1), 0u);
  // The next send opens a fresh accrual window at its own timestamp.
  tracker.on_send(1, 60);
  EXPECT_DOUBLE_EQ(tracker.phi(1, 60), 0.0);
}

TEST_F(PeerHealthTest, PhiDiagnostics) {
  EXPECT_DOUBLE_EQ(tracker.phi(1, 100), 0.0);  // never contacted
  tracker.on_response(1, 4000, 1000);          // srtt 4000 > floor 2000
  tracker.on_send(1, 1000);
  EXPECT_DOUBLE_EQ(tracker.phi(1, 9000), 2.0);  // 8000us silence / 4000us srtt
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
