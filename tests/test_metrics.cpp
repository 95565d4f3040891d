// Unit tests for metrics, config rendering and the log level gate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/config.h"
#include "src/common/log.h"
#include "src/common/metrics.h"

namespace adgc {
namespace {

TEST(Metrics, CountersStartAtZero) {
  Metrics m;
  EXPECT_EQ(m.cdms_sent.get(), 0u);
  EXPECT_EQ(m.objects_allocated.get(), 0u);
}

TEST(Metrics, AddAccumulates) {
  Metrics m;
  m.cdms_sent.add();
  m.cdms_sent.add(41);
  EXPECT_EQ(m.cdms_sent.get(), 42u);
  m.cdms_sent.reset();
  EXPECT_EQ(m.cdms_sent.get(), 0u);
}

TEST(Metrics, MergeSumsEveryField) {
  Metrics a, b;
  a.cdms_sent.add(10);
  a.messages_lost.add(1);
  b.cdms_sent.add(5);
  b.detections_started.add(7);
  a.merge(b);
  EXPECT_EQ(a.cdms_sent.get(), 15u);
  EXPECT_EQ(a.messages_lost.get(), 1u);
  EXPECT_EQ(a.detections_started.get(), 7u);
  // b untouched.
  EXPECT_EQ(b.cdms_sent.get(), 5u);
}

TEST(Metrics, ReportListsOnlyNonZero) {
  Metrics m;
  m.cdms_sent.add(3);
  m.scions_created.add(2);
  const std::string rep = m.report("> ");
  EXPECT_NE(rep.find("> cdms_sent = 3"), std::string::npos);
  EXPECT_NE(rep.find("> scions_created = 2"), std::string::npos);
  EXPECT_EQ(rep.find("messages_lost"), std::string::npos);
}

TEST(Metrics, ResetZeroesEverything) {
  Metrics m;
  m.cdms_sent.add(3);
  m.peer_health_slots.set(9);
  m.reset();
  EXPECT_TRUE(m.report().empty());
}

TEST(Metrics, SetStoresInOneStep) {
  Counter c;
  c.add(3);
  c.set(7);
  EXPECT_EQ(c.get(), 7u);
  // A gauge is written on the loop thread and summed by the admin thread;
  // a reader must never see the 0 between a reset() and an add().
  std::atomic<bool> stop{false};
  std::thread writer([&] { for (std::uint64_t i = 0; !stop.load(); ++i) c.set(1 + i % 4); });
  bool saw_zero = false;
  for (int i = 0; i < 200'000; ++i) saw_zero = saw_zero || c.get() == 0;
  stop = true;
  writer.join();
  EXPECT_FALSE(saw_zero);
}

TEST(Metrics, CopyTakesSnapshot) {
  Metrics m;
  m.invocations_sent.add(4);
  const Metrics copy = m;
  m.invocations_sent.add(1);
  EXPECT_EQ(copy.invocations_sent.get(), 4u);
  EXPECT_EQ(m.invocations_sent.get(), 5u);
}

TEST(Config, DescribeMentionsKeyKnobs) {
  RuntimeConfig cfg;
  cfg.seed = 99;
  cfg.net.loss_probability = 0.25;
  cfg.proc.dcda_enabled = false;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("seed=99"), std::string::npos);
  EXPECT_NE(d.find("loss=0.25"), std::string::npos);
  EXPECT_NE(d.find("dcda=off"), std::string::npos);
}

TEST(Log, LevelGateWorks) {
  const LogLevel before = Log::level();
  Log::set_level(LogLevel::kError);
  EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::set_level(LogLevel::kTrace);
  EXPECT_TRUE(Log::enabled(LogLevel::kDebug));
  Log::set_level(before);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace adgc
