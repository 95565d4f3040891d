// Serializer tests: lossless round-trips for both implementations on hand
// graphs and randomized snapshots, corruption rejection, and the expected
// cost ordering (naive ≫ binary — the paper's Rotor vs .NET comparison).
#include <gtest/gtest.h>

#include <chrono>

#include "bench/naive_serializer.h"
#include "src/common/rng.h"
#include "src/snapshot/serializer.h"
#include "tests/snapshot_builder.h"

namespace adgc {
namespace {

std::vector<std::byte> payload(const SnapshotData& s, std::size_t i) {
  return s.payloads.empty() ? std::vector<std::byte>{} : s.payloads[i];
}

bool snapshots_equal(const SnapshotData& a, const SnapshotData& b) {
  if (a.pid != b.pid || a.taken_at != b.taken_at || a.roots != b.roots ||
      a.root_objs != b.root_objs) {
    return false;
  }
  if (a.seqs != b.seqs || a.edge_at != b.edge_at || a.edges != b.edges ||
      a.ref_at != b.ref_at || a.refs != b.refs) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_objects(); ++i) {
    if (payload(a, i) != payload(b, i)) return false;
  }
  if (a.stubs.size() != b.stubs.size() || a.scions.size() != b.scions.size()) return false;
  for (std::size_t i = 0; i < a.stubs.size(); ++i) {
    if (a.stubs[i].ref != b.stubs[i].ref || a.stubs[i].target != b.stubs[i].target ||
        a.stubs[i].ic != b.stubs[i].ic) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.scions.size(); ++i) {
    if (a.scions[i].ref != b.scions[i].ref || a.scions[i].holder != b.scions[i].holder ||
        a.scions[i].target != b.scions[i].target || a.scions[i].ic != b.scions[i].ic ||
        a.scions[i].obj != b.scions[i].obj) {
      return false;
    }
  }
  return true;
}

SnapshotData sample_snapshot(Rng& rng, std::size_t n_objects) {
  SnapshotData snap;
  snap.pid = 3;
  snap.taken_at = 123456;
  std::vector<SnapshotObject> objects;
  for (std::size_t i = 1; i <= n_objects; ++i) {
    SnapshotObject o;
    o.seq = i;
    const std::size_t edges = rng.below(4);
    for (std::size_t k = 0; k < edges; ++k) o.local_fields.push_back(1 + rng.below(n_objects));
    if (rng.chance(0.4)) o.remote_fields.push_back(make_ref_id(3, i));
    const std::size_t pay = rng.below(32);
    for (std::size_t k = 0; k < pay; ++k) {
      o.payload.push_back(static_cast<std::byte>(rng.below(256)));
    }
    objects.push_back(std::move(o));
  }
  snap.roots = {1, 2};
  for (std::size_t i = 1; i <= n_objects; ++i) {
    if (i % 3 == 0) snap.stubs.push_back({make_ref_id(3, i), ObjectId{4, i}, i});
    if (i % 4 == 0) {
      snap.scions.push_back({make_ref_id(5, i), static_cast<ProcessId>(i % 7), i, i * 2});
    }
  }
  pack_objects(snap, objects);
  return snap;
}

class SerializerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializerRoundTrip, BothLossless) {
  Rng rng(GetParam());
  const SnapshotData snap = sample_snapshot(rng, 20 + rng.below(60));
  for (const Serializer* s : {static_cast<const Serializer*>(new NaiveSerializer),
                              static_cast<const Serializer*>(new BinarySerializer)}) {
    const auto bytes = s->serialize(snap);
    const SnapshotData back = s->deserialize(bytes);
    EXPECT_TRUE(snapshots_equal(snap, back)) << s->name();
    delete s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Serializers, EmptySnapshot) {
  SnapshotData snap;
  snap.pid = 0;
  NaiveSerializer naive;
  BinarySerializer binary;
  EXPECT_TRUE(snapshots_equal(snap, naive.deserialize(naive.serialize(snap))));
  EXPECT_TRUE(snapshots_equal(snap, binary.deserialize(binary.serialize(snap))));
}

TEST(Serializers, BinaryRejectsBadMagic) {
  BinarySerializer binary;
  SnapshotData snap;
  auto bytes = binary.serialize(snap);
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(binary.deserialize(bytes), DecodeError);
}

TEST(Serializers, BinaryRejectsTruncation) {
  BinarySerializer binary;
  Rng rng(9);
  const SnapshotData snap = sample_snapshot(rng, 10);
  auto bytes = binary.serialize(snap);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(binary.deserialize(bytes), DecodeError);
}

TEST(Serializers, BinaryRejectsCountsBeyondTheInput) {
  // Each count is checked against the bytes left before it sizes a vector,
  // so a corrupt count is a DecodeError, not a huge allocation.
  BinarySerializer binary;
  const auto empty = binary.serialize(SnapshotData{});
  ASSERT_EQ(empty.size(), 32u);  // magic, pid, taken_at, then four counts
  for (std::size_t at : {16u, 20u, 24u, 28u}) {
    auto bytes = empty;
    for (std::size_t k = 0; k < 4; ++k) bytes[at + k] = std::byte{0xff};
    EXPECT_THROW(binary.deserialize(bytes), DecodeError) << "count at byte " << at;
  }
}

TEST(Serializers, NaiveRejectsGarbage) {
  NaiveSerializer naive;
  const std::string junk = "this is not a snapshot\n";
  const auto* p = reinterpret_cast<const std::byte*>(junk.data());
  EXPECT_THROW(naive.deserialize(std::span(p, junk.size())), DecodeError);
}

TEST(Serializers, NaiveRejectsBadHexPayload) {
  NaiveSerializer naive;
  SnapshotData snap;
  pack_objects(snap, {{1, {}, {}, {std::byte{0xAB}}}});
  auto bytes = naive.serialize(snap);
  // Corrupt a hex digit of the payload.
  std::string text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  const auto pos = text.find("payload ab");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = 'z';
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  EXPECT_THROW(naive.deserialize(std::span(p, text.size())), DecodeError);
}

TEST(Serializers, CostOrderingHolds) {
  // The paper's serialization story: the reflective/text serializer is at
  // least an order of magnitude slower than the binary one on dummy-object
  // graphs. Keep the graph modest so the test stays fast.
  Rng rng(11);
  SnapshotData snap = sample_snapshot(rng, 4000);
  NaiveSerializer naive;
  BinarySerializer binary;

  const auto t0 = std::chrono::steady_clock::now();
  const auto nb = naive.serialize(snap);
  const auto t1 = std::chrono::steady_clock::now();
  const auto bb = binary.serialize(snap);
  const auto t2 = std::chrono::steady_clock::now();

  const auto naive_us = std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0);
  const auto binary_us = std::chrono::duration_cast<std::chrono::microseconds>(t2 - t1);
  EXPECT_GT(naive_us.count(), binary_us.count())
      << "naive=" << naive_us.count() << "us binary=" << binary_us.count() << "us";
  // Binary is also more compact.
  EXPECT_LT(bb.size(), nb.size());
}

}  // namespace
}  // namespace adgc
