// ActorHost: the wall-clock execution context both real runtimes run each
// Process in. Checks its timer order, its delivery filter and that a
// synchronous call after shutdown runs instead of waiting on a loop that is
// gone.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <span>
#include <vector>

#include "src/rt/actor_host.h"
#include "src/rt/threaded_runtime.h"

namespace adgc {
namespace {

TEST(ActorHost, PostSyncAfterShutdownRunsInline) {
  ThreadedRuntime rt(2);
  rt.shutdown();
  bool ran = false;
  const auto post_sync = [&] { rt.post_sync(0, [&](Process&) { ran = true; }); };
  auto call = std::async(std::launch::async, post_sync);
  if (call.wait_for(std::chrono::seconds(2)) != std::future_status::ready) {
    // The call waits on a closure no loop will run. Leak its future, whose
    // destructor would wait too, so the test reports instead of hanging.
    (void)new std::future<void>(std::move(call));
    FAIL() << "post_sync after shutdown() did not return within 2 s";
  }
  call.get();
  EXPECT_TRUE(ran);
}

ActorHost::Wiring wiring_with_stale_rule(std::function<bool(const Envelope&)> stale) {
  ActorHost::Wiring wiring;
  wiring.send = [](Envelope) {};
  wiring.stale = std::move(stale);
  return wiring;
}

TEST(ActorHost, TimersFireInDeadlineOrderAndMayArmMore) {
  std::vector<int> fired;  // loop thread only until stop()
  std::promise<void> done;
  ActorHost host(0, 1, 0, wiring_with_stale_rule([](const Envelope&) { return false; }));
  host.start();
  host.post([&] {
    host.schedule(300'000, [&] {
      fired.push_back(4);
      done.set_value();
    });
    host.schedule(10'000, [&] {
      fired.push_back(1);
      // Armed while firing; due long before the 250 ms timer.
      host.schedule(10'000, [&] { fired.push_back(2); });
    });
    host.schedule(250'000, [&] { fired.push_back(3); });
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(5)), std::future_status::ready);
  host.stop();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ActorHost, EmptySlotAndStaleEnvelopesNeverReachTheProcess) {
  ProcessConfig cfg;
  cfg.periodic_collectors_enabled = false;
  int reached = 0;  // loop thread only until stop()
  // Stale here means any sender incarnation but 0.
  const auto stale = [](const Envelope& env) { return env.src_inc != 0; };
  ActorHost host(0, 1, 0, wiring_with_stale_rule(stale));
  const auto reserved = [](Incarnation src_inc) {
    Envelope env;
    env.src = 1;
    env.dst = 0;
    env.src_inc = src_inc;
    env.bytes = {std::byte{kReservedTags.first}};
    return env;
  };

  host.start();
  host.deliver(reserved(0));  // no process installed yet
  host.post([&] {
    host.set_process(std::make_unique<Process>(0, cfg, host));
    host.process()->set_reserved_handler(
        [&](ProcessId, std::span<const std::byte>) { ++reached; });
  });
  host.deliver(reserved(1));  // stale
  host.deliver(reserved(0));  // delivered
  host.run_sync([](Process&) {});  // the mailbox is FIFO: all three are handled
  host.stop();

  EXPECT_EQ(reached, 1);
  EXPECT_EQ(host.metrics().messages_dropped_crashed.get(), 1u);
  EXPECT_EQ(host.metrics().messages_stale_incarnation.get(), 1u);
  EXPECT_EQ(host.metrics().messages_delivered.get(), 1u);
}

}  // namespace
}  // namespace adgc
