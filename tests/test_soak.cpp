// Soak tests: larger, longer randomized runs than test_property_random —
// more processes, more mutation and mixed fault injection — checking the
// same two invariants (safety continuously, completeness after settling).
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/sim/harness.h"
#include "src/sim/workload.h"

namespace adgc {
namespace {

/// Nightly CI scales the soak up without a rebuild: ADGC_SOAK_MULTIPLIER=N
/// multiplies every run's mutation rounds.
int soak_multiplier() {
  const char* env = std::getenv("ADGC_SOAK_MULTIPLIER");
  if (!env) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

struct SoakParams {
  std::uint64_t seed;
  std::size_t procs;
  double loss;
  int rounds;
  bool fifo;
};

class Soak : public ::testing::TestWithParam<SoakParams> {};

TEST_P(Soak, LongRunConverges) {
  const SoakParams p = GetParam();
  RuntimeConfig cfg = sim::fast_config(p.seed);
  cfg.net.loss_probability = p.loss;
  cfg.net.duplicate_probability = p.loss / 2;
  cfg.net.fifo_links = p.fifo;
  Runtime rt(p.procs, cfg);

  sim::WorkloadParams wp;
  wp.initial_objects_per_proc = 8;
  wp.max_objects = 1500;
  sim::RandomWorkload w(rt, wp, p.seed * 104729 + 3);

  const int rounds = p.rounds * soak_multiplier();
  for (int round = 0; round < rounds; ++round) {
    w.steps(30);
    rt.run_for(20'000);
    if (round % 10 == 0) {
      const auto violation = w.find_safety_violation();
      ASSERT_FALSE(violation.has_value())
          << "SAFETY: " << to_string(*violation) << " seed=" << p.seed
          << " round=" << round;
    }
  }

  rt.run_for(p.loss > 0 ? 80'000'000 : 30'000'000);
  const auto violation = w.find_safety_violation();
  ASSERT_FALSE(violation.has_value()) << "SAFETY post-settle";
  EXPECT_TRUE(w.converged()) << "COMPLETENESS seed=" << p.seed;

  // Sanity: the run actually exercised the cyclic machinery.
  const Metrics m = rt.total_metrics();
  EXPECT_GT(m.detections_started.get(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mixed, Soak,
    ::testing::Values(
        SoakParams{31, 8, 0.0, 80, false}, SoakParams{32, 10, 0.05, 60, false},
        SoakParams{33, 6, 0.0, 100, false}, SoakParams{34, 6, 0.10, 60, true},
        SoakParams{35, 12, 0.0, 50, true}));

}  // namespace
}  // namespace adgc
