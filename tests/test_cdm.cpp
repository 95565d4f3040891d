// CDM helper coverage plus extra cycle-shape integration cases that do not
// fit the canonical figures: overlapping cycles sharing a full segment,
// self-loops through two processes, and long chains feeding a cycle.
#include <gtest/gtest.h>

#include "src/dcda/cdm.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"

namespace adgc {
namespace {

TEST(CdmHelpers, DescribeRendersEverything) {
  CdmMsg msg;
  msg.detection = {3, 9};
  msg.candidate = make_ref_id(3, 1);
  msg.via = make_ref_id(4, 2);
  msg.via_ic = 7;
  msg.hops = 5;
  msg.source = {{make_ref_id(3, 1), 0}};
  msg.target = {{make_ref_id(4, 2), 7}};
  const std::string s = describe(msg);
  EXPECT_NE(s.find("det(3:9)"), std::string::npos);
  EXPECT_NE(s.find("candidate=ref(3:1)"), std::string::npos);
  EXPECT_NE(s.find("via=ref(4:2)@7"), std::string::npos);
  EXPECT_NE(s.find("hops=5"), std::string::npos);
}

TEST(CdmHelpers, EncodedSizeGrowsWithAlgebra) {
  CdmMsg msg;
  msg.detection = {0, 1};
  std::size_t prev = encoded_size(msg);
  for (std::uint64_t i = 0; i < 16; ++i) {
    msg.source.push_back({make_ref_id(0, i), i});
    msg.target.push_back({make_ref_id(1, i), i});
    const std::size_t size = encoded_size(msg);
    EXPECT_GT(size, prev) << i;
    // The size-only pass counts exactly what the encoder writes.
    EXPECT_EQ(size, encode_message(MessagePayload{msg}).size()) << i;
    prev = size;
  }
}

// ---- extra cycle shapes, end-to-end ----

TEST(CycleShapes, TwoProcessPingPong) {
  // The minimal distributed cycle: a(P0) ⇄ b(P1).
  Runtime rt(2, sim::fast_config(41));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.link(a, b);
  rt.link(b, a);
  rt.run_for(3'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(CycleShapes, OverlappingCyclesSharedSegment) {
  // Two cycles sharing the segment b→c (all distinct processes):
  //   a → b → c → a    and    d → b → c → d
  Runtime rt(4, sim::fast_config(42));
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  const ObjectId c{2, rt.proc(2).create_object()};
  const ObjectId d{3, rt.proc(3).create_object()};
  rt.link(a, b);
  rt.link(b, c);
  rt.link(c, a);
  rt.link(c, d);
  rt.link(d, b);
  rt.run_for(6'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(CycleShapes, LongTailFeedingCycle) {
  // Acyclic chain of 5 processes feeding a 3-process cycle: hybrid garbage,
  // collected outside-in (reference listing eats the tail, DCDA the cycle).
  Runtime rt(8, sim::fast_config(43));
  std::vector<ObjectId> tail;
  for (ProcessId pid = 0; pid < 5; ++pid) {
    tail.push_back(ObjectId{pid, rt.proc(pid).create_object()});
  }
  for (int i = 0; i < 4; ++i) rt.link(tail[i], tail[i + 1]);
  std::vector<ObjectId> cyc;
  for (ProcessId pid = 5; pid < 8; ++pid) {
    cyc.push_back(ObjectId{pid, rt.proc(pid).create_object()});
  }
  rt.link(cyc[0], cyc[1]);
  rt.link(cyc[1], cyc[2]);
  rt.link(cyc[2], cyc[0]);
  rt.link(tail[4], cyc[0]);

  // Rooted at the head of the tail: everything lives.
  rt.proc(0).add_root(tail[0].seq);
  rt.run_for(500'000);
  EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 8u);

  rt.proc(0).remove_root(tail[0].seq);
  rt.run_for(10'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(CycleShapes, CycleWithInternalShortcuts) {
  // A 4-process ring plus chords (extra refs across the ring) — multiple
  // overlapping cycles through the same objects.
  Runtime rt(4, sim::fast_config(44));
  std::vector<ObjectId> o;
  for (ProcessId pid = 0; pid < 4; ++pid) {
    o.push_back(ObjectId{pid, rt.proc(pid).create_object()});
  }
  for (int i = 0; i < 4; ++i) rt.link(o[static_cast<std::size_t>(i)],
                                      o[static_cast<std::size_t>((i + 1) % 4)]);
  rt.link(o[0], o[2]);  // chords
  rt.link(o[2], o[0]);
  rt.link(o[1], o[3]);
  rt.run_for(8'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
}

TEST(CycleShapes, SelfCycleWithinProcessPlusRemoteEdge) {
  // Local cycle at P0 holding a remote ref to P1; plain LGC + reference
  // listing suffice (no DCDA needed); ensure the DCDA does not interfere.
  Runtime rt(2, sim::fast_config(45));
  const ObjectSeq a = rt.proc(0).create_object();
  const ObjectSeq a2 = rt.proc(0).create_object();
  rt.proc(0).add_local_ref(a, a2);
  rt.proc(0).add_local_ref(a2, a);
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.link(ObjectId{0, a2}, b);
  rt.run_for(3'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u);
  EXPECT_EQ(rt.total_metrics().detections_cycle_found.get(), 0u);
}

}  // namespace
}  // namespace adgc
