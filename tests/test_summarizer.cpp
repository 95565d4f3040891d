// Tests for graph summarization: hand-built snapshots with known relations,
// SccSummarizer's equality with the BFS oracle on hand-built cases, the
// benchmark's heap shapes and random graphs, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/snapshot/summarizer.h"
#include "tests/bfs_summarizer.h"
#include "tests/heap_shapes.h"
#include "tests/snapshot_builder.h"

namespace adgc {
namespace {

// Small builder for SnapshotData by hand: objects in seq form, packed by
// build().
struct SnapBuilder {
  SnapshotData snap;
  std::vector<SnapshotObject> objects;
  ObjectSeq next = 1;

  SnapBuilder() {
    snap.pid = 0;
    snap.taken_at = 0;
  }
  ObjectSeq obj() {
    SnapshotObject o;
    o.seq = next++;
    objects.push_back(o);
    return o.seq;
  }
  SnapshotData build() const {
    SnapshotData out = snap;
    pack_objects(out, objects);
    return out;
  }
  SnapshotObject& find(ObjectSeq s) {
    for (auto& o : objects) {
      if (o.seq == s) return o;
    }
    throw std::logic_error("no such obj");
  }
  void edge(ObjectSeq a, ObjectSeq b) { find(a).local_fields.push_back(b); }
  void root(ObjectSeq a) { snap.roots.push_back(a); }
  RefId stub(ObjectSeq holder, RefId ref, std::uint64_t ic = 0) {
    find(holder).remote_fields.push_back(ref);
    if (std::none_of(snap.stubs.begin(), snap.stubs.end(),
                     [&](const auto& s) { return s.ref == ref; })) {
      snap.stubs.push_back({ref, ObjectId{1, 1}, ic});
    }
    return ref;
  }
  RefId scion(ObjectSeq target, RefId ref, std::uint64_t ic = 0) {
    snap.scions.push_back({ref, /*holder=*/2, target, ic});
    return ref;
  }
};

TEST(Summarizer, StubsFromFollowsLocalEdges) {
  SnapBuilder b;
  const ObjectSeq f = b.obj(), g = b.obj(), h = b.obj(), j = b.obj();
  b.edge(f, h);
  b.edge(f, g);
  b.edge(g, h);
  b.edge(h, j);
  const RefId stub_q = b.stub(j, make_ref_id(0, 10));
  const RefId scion_f = b.scion(f, make_ref_id(9, 1));

  for (Summarizer* s :
       {static_cast<Summarizer*>(new BfsSummarizer),
        static_cast<Summarizer*>(new SccSummarizer)}) {
    const SummarizedGraph sum = s->summarize(b.build());
    const ScionSummary* sc = sum.scion(scion_f);
    ASSERT_NE(sc, nullptr) << s->name();
    EXPECT_EQ(sc->stubs_from, std::vector<RefId>{stub_q}) << s->name();
    const StubSummary* st = sum.stub(stub_q);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->scions_to, std::vector<RefId>{scion_f}) << s->name();
    EXPECT_FALSE(st->local_reach);
    delete s;
  }
}

TEST(Summarizer, LocalReachFromRoots) {
  SnapBuilder b;
  const ObjectSeq a = b.obj(), c = b.obj();
  b.root(a);
  const RefId r1 = b.stub(a, make_ref_id(0, 1));
  const RefId r2 = b.stub(c, make_ref_id(0, 2));

  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.build());
  EXPECT_TRUE(sum.stub(r1)->local_reach);
  EXPECT_FALSE(sum.stub(r2)->local_reach);
}

TEST(Summarizer, ScionUnreachableStubExcluded) {
  SnapBuilder b;
  const ObjectSeq x = b.obj(), y = b.obj();
  const RefId rx = b.stub(x, make_ref_id(0, 1));
  const RefId ry = b.stub(y, make_ref_id(0, 2));
  const RefId sc = b.scion(x, make_ref_id(9, 1));

  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.build());
  EXPECT_EQ(sum.scion(sc)->stubs_from, std::vector<RefId>{rx});
  EXPECT_TRUE(sum.stub(ry)->scions_to.empty());
}

TEST(Summarizer, CyclicLocalGraph) {
  // a ↔ b cycle inside the process, both reaching a stub.
  SnapBuilder b;
  const ObjectSeq a = b.obj(), c = b.obj();
  b.edge(a, c);
  b.edge(c, a);
  const RefId r = b.stub(c, make_ref_id(0, 1));
  const RefId s1 = b.scion(a, make_ref_id(9, 1));
  const RefId s2 = b.scion(c, make_ref_id(9, 2));

  SccSummarizer s;
  const SummarizedGraph sum = s.summarize(b.build());
  EXPECT_EQ(sum.scion(s1)->stubs_from, std::vector<RefId>{r});
  EXPECT_EQ(sum.scion(s2)->stubs_from, std::vector<RefId>{r});
  const auto& deps = sum.stub(r)->scions_to;
  EXPECT_EQ(deps.size(), 2u);
}

TEST(Summarizer, SharedStubMultipleScions) {
  // Two disjoint chains, both converging on the same stub (Fig. 4's V/Y→T).
  SnapBuilder b;
  const ObjectSeq v = b.obj(), y = b.obj();
  const RefId t = make_ref_id(0, 7);
  b.stub(v, t);
  b.stub(y, t);
  const RefId sv = b.scion(v, make_ref_id(9, 1));
  const RefId sy = b.scion(y, make_ref_id(9, 2));

  for (Summarizer* s :
       {static_cast<Summarizer*>(new BfsSummarizer),
        static_cast<Summarizer*>(new SccSummarizer)}) {
    const SummarizedGraph sum = s->summarize(b.build());
    auto deps = sum.stub(t)->scions_to;
    std::sort(deps.begin(), deps.end());
    std::vector<RefId> want = {sv, sy};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(deps, want) << s->name();
    delete s;
  }
}

TEST(Summarizer, DanglingScionTargetIsEmpty) {
  SnapBuilder b;
  const RefId sc = b.scion(/*target=*/999, make_ref_id(9, 1));
  BfsSummarizer bfs;
  SccSummarizer scc;
  EXPECT_TRUE(bfs.summarize(b.build()).scion(sc)->stubs_from.empty());
  EXPECT_TRUE(scc.summarize(b.build()).scion(sc)->stubs_from.empty());
}

TEST(Summarizer, IcAndHolderCopied) {
  SnapBuilder b;
  const ObjectSeq a = b.obj();
  const RefId st = b.stub(a, make_ref_id(0, 1), /*ic=*/5);
  const RefId sc = b.scion(a, make_ref_id(9, 1), /*ic=*/7);
  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.build());
  EXPECT_EQ(sum.stub(st)->ic, 5u);
  EXPECT_EQ(sum.scion(sc)->ic, 7u);
  EXPECT_EQ(sum.scion(sc)->holder, 2u);
}

TEST(Summarizer, EmptySnapshot) {
  SnapshotData snap;
  BfsSummarizer bfs;
  SccSummarizer scc;
  EXPECT_TRUE(bfs.summarize(snap).scions.empty());
  EXPECT_TRUE(scc.summarize(snap).stubs.empty());
}

// ---- hand-built cases for seeding and row sharing, each checked against the
// oracle.

// SccSummarizer's summary of `snap`, after checking it equals the oracle's.
SummarizedGraph summarize_checked(const SnapshotData& snap) {
  BfsSummarizer bfs;
  SccSummarizer scc;
  SummarizedGraph out = scc.summarize(snap);
  EXPECT_TRUE(summaries_equal(out, bfs.summarize(snap)));
  return out;
}

TEST(Summarizer, StublessComponentSharesItsOneNonEmptyRow) {
  // {a1, a2} is a component with no stub. Its successors are c (holds q) and
  // e (reaches no stub), so it shares c's row, and so does x before it.
  SnapBuilder b;
  const ObjectSeq x = b.obj(), a1 = b.obj(), a2 = b.obj(), c = b.obj(), e = b.obj();
  b.edge(x, a1);
  b.edge(a1, a2);
  b.edge(a2, a1);
  b.edge(a2, c);
  b.edge(a1, e);
  const RefId q = b.stub(c, make_ref_id(0, 1));
  const RefId sx = b.scion(x, make_ref_id(9, 1));
  const RefId sa = b.scion(a2, make_ref_id(9, 2));
  const RefId sc = b.scion(c, make_ref_id(9, 3));
  const RefId se = b.scion(e, make_ref_id(9, 4));
  const SummarizedGraph sum = summarize_checked(b.build());
  for (RefId s : {sx, sa, sc}) EXPECT_EQ(sum.scion(s)->stubs_from, std::vector<RefId>{q});
  EXPECT_TRUE(sum.scion(se)->stubs_from.empty());
  EXPECT_EQ(sum.stub(q)->scions_to, (std::vector<RefId>{sx, sa, sc}));
}

TEST(Summarizer, ComponentJoinsTwoSuccessorSets) {
  // j holds nothing and reaches l (holds q1) and r (holds q2); r reaches l
  // too, so r's row already holds both.
  SnapBuilder b;
  const ObjectSeq j = b.obj(), l = b.obj(), r = b.obj(), m = b.obj();
  b.edge(j, l);
  b.edge(j, m);
  b.edge(m, r);
  b.edge(r, l);
  const RefId q1 = b.stub(l, make_ref_id(0, 1));
  const RefId q2 = b.stub(r, make_ref_id(0, 2));
  const RefId q3 = b.stub(m, make_ref_id(0, 3));
  const RefId sj = b.scion(j, make_ref_id(9, 1));
  const RefId sl = b.scion(l, make_ref_id(9, 2));
  const RefId sr = b.scion(r, make_ref_id(9, 3));
  const SummarizedGraph sum = summarize_checked(b.build());
  EXPECT_EQ(sum.scion(sj)->stubs_from, (std::vector<RefId>{q1, q2, q3}));
  EXPECT_EQ(sum.scion(sl)->stubs_from, std::vector<RefId>{q1});
  EXPECT_EQ(sum.scion(sr)->stubs_from, (std::vector<RefId>{q1, q2}));
}

TEST(Summarizer, ScionsWithOverlappingReach) {
  // s1 -> x -> {y, z} and s2 -> w -> {z, u}: z's stub belongs to both.
  SnapBuilder b;
  const ObjectSeq x = b.obj(), y = b.obj(), z = b.obj(), w = b.obj(), u = b.obj();
  b.edge(x, y);
  b.edge(x, z);
  b.edge(w, z);
  b.edge(w, u);
  const RefId qy = b.stub(y, make_ref_id(0, 1));
  const RefId qz = b.stub(z, make_ref_id(0, 2));
  const RefId qu = b.stub(u, make_ref_id(0, 3));
  const RefId s1 = b.scion(x, make_ref_id(9, 1));
  const RefId s2 = b.scion(w, make_ref_id(9, 2));
  const SummarizedGraph sum = summarize_checked(b.build());
  EXPECT_EQ(sum.scion(s1)->stubs_from, (std::vector<RefId>{qy, qz}));
  EXPECT_EQ(sum.scion(s2)->stubs_from, (std::vector<RefId>{qz, qu}));
  EXPECT_EQ(sum.stub(qz)->scions_to, (std::vector<RefId>{s1, s2}));
}

TEST(Summarizer, ScionTargetInsideACycle) {
  // a -> b -> c -> a, c holds q1 and reaches d, which holds q2. The scion
  // targets b, in the middle of the cycle.
  SnapBuilder b;
  const ObjectSeq a = b.obj(), bb = b.obj(), c = b.obj(), d = b.obj();
  b.edge(a, bb);
  b.edge(bb, c);
  b.edge(c, a);
  b.edge(c, d);
  const RefId q1 = b.stub(c, make_ref_id(0, 1));
  const RefId q2 = b.stub(d, make_ref_id(0, 2));
  const RefId sb = b.scion(bb, make_ref_id(9, 1));
  const RefId sd = b.scion(d, make_ref_id(9, 2));
  const SummarizedGraph sum = summarize_checked(b.build());
  EXPECT_EQ(sum.scion(sb)->stubs_from, (std::vector<RefId>{q1, q2}));
  EXPECT_EQ(sum.scion(sd)->stubs_from, std::vector<RefId>{q2});
}

TEST(Summarizer, StubsNoScionReaches) {
  // Rooted r holds q1 and unrooted u holds q2; the scion's target t reaches
  // neither. Both stubs are in no StubsFrom, and q1 is still Local.Reach.
  SnapBuilder b;
  const ObjectSeq r = b.obj(), u = b.obj(), t = b.obj();
  b.root(r);
  b.edge(u, t);
  const RefId q1 = b.stub(r, make_ref_id(0, 1));
  const RefId q2 = b.stub(u, make_ref_id(0, 2));
  const RefId q3 = b.stub(t, make_ref_id(0, 3));
  const RefId st = b.scion(t, make_ref_id(9, 1));
  const SummarizedGraph sum = summarize_checked(b.build());
  EXPECT_EQ(sum.scion(st)->stubs_from, std::vector<RefId>{q3});
  EXPECT_TRUE(sum.stub(q1)->scions_to.empty());
  EXPECT_TRUE(sum.stub(q2)->scions_to.empty());
  EXPECT_TRUE(sum.stub(q1)->local_reach);
  EXPECT_FALSE(sum.stub(q2)->local_reach);
  EXPECT_FALSE(sum.stub(q3)->local_reach);
}

TEST(Summarizer, MalformedSnapshotMatchesOracle) {
  // Recovery summarizes whatever the decoder accepts: a repeated object seq
  // (the first object wins), repeated stub and scion refs (the first entry
  // keeps its IC; a repeated scion's targets pool their stubs), dangling
  // local edges, a self-loop, and a remote field with no stub entry.
  SnapBuilder b;
  const ObjectSeq a = b.obj(), c = b.obj(), d = b.obj();
  b.edge(a, c);
  b.edge(c, c);
  b.edge(c, 999);
  b.edge(d, a);
  const RefId q1 = b.stub(c, make_ref_id(0, 1), /*ic=*/1);
  b.snap.stubs.push_back({q1, ObjectId{1, 1}, /*ic=*/7});
  const RefId q2 = b.stub(d, make_ref_id(0, 2));
  b.find(d).remote_fields.push_back(make_ref_id(0, 77));  // no such stub
  SnapshotObject twin;
  twin.seq = c;  // repeats c's seq; never reached
  twin.remote_fields.push_back(make_ref_id(0, 3));
  b.objects.push_back(twin);
  b.snap.stubs.push_back({make_ref_id(0, 3), ObjectId{1, 3}, 0});
  b.root(c);
  const RefId s1 = b.scion(a, make_ref_id(9, 1), /*ic=*/2);
  b.scion(d, s1, /*ic=*/5);  // same ref, another target
  const RefId s2 = b.scion(999, make_ref_id(9, 2));
  const SummarizedGraph sum = summarize_checked(b.build());
  EXPECT_EQ(sum.scion(s1)->ic, 2u);
  EXPECT_EQ(sum.scion(s1)->stubs_from, (std::vector<RefId>{q1, q2}));
  EXPECT_TRUE(sum.scion(s2)->stubs_from.empty());
  EXPECT_EQ(sum.stub(q1)->ic, 1u);
  EXPECT_TRUE(sum.stub(q1)->local_reach);
  EXPECT_FALSE(sum.stub(make_ref_id(0, 3))->local_reach);
  EXPECT_EQ(sum.stub(make_ref_id(0, 77)), nullptr);
}

// ---- property sweep: BFS and SCC summaries are identical on random graphs.

struct SummarizerEquivParams {
  std::uint64_t seed;
  std::size_t objects;
  double edge_prob;
};

class SummarizerEquiv : public ::testing::TestWithParam<SummarizerEquivParams> {};

SnapshotData random_snapshot(Rng& rng, std::size_t n, double edge_prob) {
  SnapshotData snap;
  snap.pid = 0;
  std::vector<SnapshotObject> objects;
  for (std::size_t i = 1; i <= n; ++i) {
    SnapshotObject o;
    o.seq = i;
    objects.push_back(o);
  }
  for (auto& o : objects) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (rng.chance(edge_prob)) o.local_fields.push_back(j);
    }
  }
  // Roots, stubs, scions over random objects.
  const std::size_t nroots = 1 + rng.below(3);
  for (std::size_t i = 0; i < nroots; ++i) snap.roots.push_back(1 + rng.below(n));
  const std::size_t nstubs = rng.below(n / 2 + 1);
  for (std::size_t i = 0; i < nstubs; ++i) {
    const RefId ref = make_ref_id(0, i + 1);
    snap.stubs.push_back({ref, ObjectId{1, i}, rng.below(5)});
    objects[rng.below(n)].remote_fields.push_back(ref);
    if (rng.chance(0.3)) objects[rng.below(n)].remote_fields.push_back(ref);
  }
  const std::size_t nscions = rng.below(n / 2 + 1);
  for (std::size_t i = 0; i < nscions; ++i) {
    snap.scions.push_back(
        {make_ref_id(9, i + 1), static_cast<ProcessId>(1 + rng.below(4)),
         1 + rng.below(n), rng.below(5)});
  }
  pack_objects(snap, objects);
  return snap;
}

TEST_P(SummarizerEquiv, BfsEqualsScc) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  for (int iter = 0; iter < 10; ++iter) {
    const SnapshotData snap = random_snapshot(rng, p.objects, p.edge_prob);
    BfsSummarizer bfs;
    SccSummarizer scc;
    const SummarizedGraph a = bfs.summarize(snap);
    const SummarizedGraph b = scc.summarize(snap);
    EXPECT_TRUE(summaries_equal(a, b)) << "seed=" << p.seed << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SummarizerEquiv,
    ::testing::Values(SummarizerEquivParams{1, 5, 0.3}, SummarizerEquivParams{2, 12, 0.15},
                      SummarizerEquivParams{3, 30, 0.08}, SummarizerEquivParams{4, 30, 0.02},
                      SummarizerEquivParams{5, 80, 0.03}, SummarizerEquivParams{6, 80, 0.3},
                      SummarizerEquivParams{7, 200, 0.01},
                      SummarizerEquivParams{8, 200, 0.05}));

// A rooted heap with many stubs, most on rooted objects, and a few scions:
// the case where seeding from the scion targets skips most of the heap.
SnapshotData rooted_heap(Rng& rng, std::size_t n) {
  SnapshotData snap;
  snap.pid = 0;
  std::vector<SnapshotObject> objects;
  for (std::size_t i = 1; i <= n; ++i) {
    SnapshotObject o;
    o.seq = i;
    const std::size_t degree = rng.below(3);
    for (std::size_t e = 0; e < degree; ++e) o.local_fields.push_back(1 + rng.below(n));
    objects.push_back(std::move(o));
  }
  for (std::size_t i = 0; i < n / 4; ++i) snap.roots.push_back(1 + rng.below(n));
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const RefId ref = make_ref_id(0, i + 1);
    snap.stubs.push_back({ref, ObjectId{1, i}, rng.below(5)});
    const ObjectSeq holder =
        rng.chance(0.9) ? snap.roots[rng.below(snap.roots.size())] : 1 + rng.below(n);
    objects[holder - 1].remote_fields.push_back(ref);
  }
  const std::size_t nscions = 1 + rng.below(4);
  for (std::size_t i = 0; i < nscions; ++i) {
    snap.scions.push_back({make_ref_id(9, i + 1), 1, 1 + rng.below(n), rng.below(5)});
  }
  pack_objects(snap, objects);
  return snap;
}

TEST(SummarizerEquivRooted, FewScionsManyRootedStubs) {
  Rng rng(11);
  for (int iter = 0; iter < 40; ++iter) {
    const SnapshotData snap = rooted_heap(rng, 50 + rng.below(400));
    BfsSummarizer bfs;
    SccSummarizer scc;
    EXPECT_TRUE(summaries_equal(scc.summarize(snap), bfs.summarize(snap))) << "iter=" << iter;
  }
}

// ---- the benchmark's node heaps, scaled to about 2k objects.

TEST(SummarizerShapes, RmiClient) {
  const SummarizedGraph sum = summarize_checked(shapes::rmi_client(4, 2'000, 2'000, 1));
  ASSERT_EQ(sum.scions.size(), 2'000u);
  ASSERT_EQ(sum.stubs.size(), 2'004u);
  for (const auto& [ref, s] : sum.scions) EXPECT_TRUE(s.stubs_from.empty());
  for (const auto& [ref, s] : sum.stubs) EXPECT_TRUE(s.local_reach);
}

TEST(SummarizerShapes, RmiServer) {
  const SummarizedGraph sum = summarize_checked(shapes::rmi_server(2'000, 256));
  ASSERT_EQ(sum.scions.size(), 2'004u);
  ASSERT_EQ(sum.stubs.size(), 1'024u);
  std::size_t sinks = 0;
  for (const auto& [ref, s] : sum.scions) {
    if (s.stubs_from.empty()) continue;
    EXPECT_EQ(s.stubs_from.size(), 256u);
    ++sinks;
  }
  EXPECT_EQ(sinks, 4u);
  for (const auto& [ref, s] : sum.stubs) {
    EXPECT_EQ(s.scions_to.size(), 1u);
    EXPECT_TRUE(s.local_reach);
  }
}

TEST(SummarizerShapes, CycleReclaimNode) {
  const SummarizedGraph sum = summarize_checked(shapes::cycle_node(200, 2'000, 5, 1));
  ASSERT_EQ(sum.scions.size(), 21u);
  ASSERT_EQ(sum.stubs.size(), 21u);
  std::size_t ring_heads = 0, rooted_stubs = 0;
  for (const auto& [ref, s] : sum.scions) {
    EXPECT_LE(s.stubs_from.size(), 1u);
    ring_heads += s.stubs_from.size();
  }
  for (const auto& [ref, s] : sum.stubs) rooted_stubs += s.local_reach;
  EXPECT_EQ(ring_heads, 5u);
  EXPECT_EQ(rooted_stubs, 16u);
}

}  // namespace
}  // namespace adgc
