// Unit tests for the local mark-sweep collector and its DGC contract.
#include <gtest/gtest.h>

#include "src/lgc/mark_sweep.h"
#include "tests/lgc_oracle.h"

namespace adgc {
namespace {

struct World {
  Heap heap;
  StubTable stubs;
  ScionTable scions;
  std::set<RefId> pinned;

  lgc::Result gc() { return lgc::run(heap, stubs, scions, pinned, 0); }
};

TEST(Lgc, CollectsUnreachable) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();
  const ObjectSeq c = w.heap.allocate();
  w.heap.add_root(a);
  w.heap.add_local_field(a, b);

  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_TRUE(w.heap.exists(a));
  EXPECT_TRUE(w.heap.exists(b));
  EXPECT_FALSE(w.heap.exists(c));
}

TEST(Lgc, CollectsLocalCycles) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();
  w.heap.add_local_field(a, b);
  w.heap.add_local_field(b, a);
  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 2u);
  EXPECT_EQ(w.heap.size(), 0u);
}

TEST(Lgc, ScionsActAsRoots) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();
  w.heap.add_local_field(a, b);
  const RefId r = make_ref_id(9, 1);
  w.scions.ensure(r, /*holder=*/9, a, 0);

  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 0u);
  EXPECT_TRUE(w.heap.exists(a));
  EXPECT_TRUE(w.heap.exists(b));
  // But the scion-kept objects are not root-reachable.
  EXPECT_FALSE(w.scions.find(r)->target_root_reachable);
}

TEST(Lgc, DeletingScionFreesSubtree) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const RefId ref = make_ref_id(9, 1);
  w.scions.ensure(ref, 9, a, 0);
  w.gc();
  EXPECT_TRUE(w.heap.exists(a));
  w.scions.erase(ref);
  w.gc();
  EXPECT_FALSE(w.heap.exists(a));
}

TEST(Lgc, OrphanedStubsDeleted) {
  World w;
  const ObjectSeq a = w.heap.allocate();  // will die
  const RefId ref = make_ref_id(0, 1);
  w.stubs.ensure(ref, ObjectId{1, 5});
  w.heap.add_remote_field(a, ref);

  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_EQ(res.stubs_deleted, 1u);
  EXPECT_FALSE(w.stubs.contains(ref));
}

TEST(Lgc, PinnedStubsSurviveWithoutHolders) {
  World w;
  const RefId ref = make_ref_id(0, 1);
  w.stubs.ensure(ref, ObjectId{1, 5});
  w.pinned.insert(ref);
  const auto res = w.gc();
  EXPECT_EQ(res.stubs_deleted, 0u);
  EXPECT_TRUE(w.stubs.contains(ref));
  w.pinned.clear();
  w.gc();
  EXPECT_FALSE(w.stubs.contains(ref));
}

TEST(Lgc, StubsOfLiveHoldersSurvive) {
  World w;
  // root → a → (stub r1); scion-kept s → (stub r2).
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq s = w.heap.allocate();
  w.heap.add_root(a);
  const RefId r1 = make_ref_id(0, 1), r2 = make_ref_id(0, 2);
  w.stubs.ensure(r1, ObjectId{1, 1});
  w.stubs.ensure(r2, ObjectId{2, 1});
  w.heap.add_remote_field(a, r1);
  w.heap.add_remote_field(s, r2);
  w.scions.ensure(make_ref_id(9, 9), 9, s, 0);

  const auto res = w.gc();
  EXPECT_EQ(res.stubs_deleted, 0u);
  EXPECT_TRUE(w.stubs.contains(r1));
  EXPECT_TRUE(w.stubs.contains(r2));
}

TEST(Lgc, SharedStubDiesWithItsLastHolder) {
  World w;
  const ObjectSeq a = w.heap.allocate();  // root-reachable holder
  const ObjectSeq s = w.heap.allocate();  // scion-kept holder
  w.heap.add_root(a);
  const RefId scion = make_ref_id(9, 9);
  w.scions.ensure(scion, 9, s, 0);
  const RefId r = make_ref_id(0, 1);
  w.stubs.ensure(r, ObjectId{1, 1});
  w.heap.add_remote_field(a, r);
  w.heap.add_remote_field(s, r);

  w.heap.remove_root(a);
  auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_EQ(res.stubs_deleted, 0u);
  EXPECT_TRUE(w.stubs.contains(r)) << "the scion-kept holder still holds it";

  w.scions.erase(scion);
  res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_EQ(res.stubs_deleted, 1u);
  EXPECT_FALSE(w.stubs.contains(r)) << "its last holder died in this LGC";
}

TEST(Lgc, ScionTargetRootReachableFlag) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();
  w.heap.add_root(a);
  w.heap.add_local_field(a, b);
  const RefId ra = make_ref_id(9, 1), rb = make_ref_id(9, 2);
  w.scions.ensure(ra, 9, b, 0);  // target root-reachable via a
  const ObjectSeq c = w.heap.allocate();
  w.scions.ensure(rb, 9, c, 0);  // target only scion-reachable

  w.gc();
  EXPECT_TRUE(w.scions.find(ra)->target_root_reachable);
  EXPECT_FALSE(w.scions.find(rb)->target_root_reachable);
}

TEST(Lgc, StubHeldByLiveAndDeadObjectSurvives) {
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();  // dies
  w.heap.add_root(a);
  const RefId r = make_ref_id(0, 1);
  w.stubs.ensure(r, ObjectId{1, 1});
  w.heap.add_remote_field(a, r);
  w.heap.add_remote_field(b, r);

  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_EQ(res.stubs_deleted, 0u);
  EXPECT_TRUE(w.stubs.contains(r));
}

TEST(Lgc, ReachFromHelper) {
  Heap h;
  const ObjectSeq a = h.allocate();
  const ObjectSeq b = h.allocate();
  const ObjectSeq c = h.allocate();
  h.add_local_field(a, b);
  const auto reach = reach_from(h, {a});
  EXPECT_TRUE(reach.contains(a));
  EXPECT_TRUE(reach.contains(b));
  EXPECT_FALSE(reach.contains(c));
  EXPECT_TRUE(reach_from(h, {}).empty());
  EXPECT_TRUE(reach_from(h, {kNoObject}).empty());
}

TEST(Lgc, EmptyHeapIsFine) {
  World w;
  const auto res = w.gc();
  EXPECT_EQ(res.objects_reclaimed, 0u);
  EXPECT_EQ(res.stubs_deleted, 0u);
}

}  // namespace
}  // namespace adgc
