// Unit tests for the sample-statistics accumulator.
#include <gtest/gtest.h>

#include "bench/sample_stats.h"

namespace adgc {
namespace {

TEST(Stats, BasicMoments) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(Stats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 1.0);
}

TEST(Stats, SingleSample) {
  SampleStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, EmptyThrows) {
  SampleStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
  EXPECT_EQ(s.summary(), "n=0");
}

TEST(Stats, AddAfterQueryResorts) {
  SampleStats s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  s.add(20);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
}

TEST(Stats, SummaryFormat) {
  SampleStats s;
  s.add(1);
  s.add(3);
  const std::string out = s.summary();
  EXPECT_NE(out.find("n=2"), std::string::npos);
  EXPECT_NE(out.find("mean=2"), std::string::npos);
}

TEST(Stats, PercentileClamped) {
  SampleStats s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.percentile(-10), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(250), 5.0);
}

}  // namespace
}  // namespace adgc
