#include "tests/heap_shapes.h"

#include <vector>

#include "src/common/rng.h"
#include "tests/snapshot_builder.h"

namespace adgc::shapes {

namespace {

constexpr std::size_t kCallers = 4;
constexpr std::size_t kInFlightExports = 40;
constexpr std::size_t kCrossRefs = 16;

/// A snapshot under construction: objects in seq form until packed.
struct Shape {
  SnapshotData snap;
  std::vector<SnapshotObject> objects;

  SnapshotData pack() {
    pack_objects(snap, objects);
    return std::move(snap);
  }
};

ObjectSeq add_object(Shape& snap, bool rooted) {
  SnapshotObject o;
  o.seq = snap.objects.size() + 1;
  snap.objects.push_back(std::move(o));
  if (rooted) snap.snap.roots.push_back(snap.objects.back().seq);
  return snap.objects.back().seq;
}

SnapshotObject& object(Shape& snap, ObjectSeq seq) { return snap.objects[seq - 1]; }

void add_stub(Shape& snap, ObjectSeq holder, RefId ref, ObjectId target) {
  snap.snap.stubs.push_back({ref, target, 0});
  object(snap, holder).remote_fields.push_back(ref);
}

void add_scion(Shape& snap, ObjectSeq target, RefId ref, ProcessId holder) {
  snap.snap.scions.push_back({ref, holder, target, 0});
}

}  // namespace

SnapshotData rmi_client(std::size_t holders, std::size_t standing, std::size_t exports,
                        std::uint64_t seed) {
  Rng rng(seed);
  Shape snap;
  snap.snap.pid = 0;
  std::vector<ObjectSeq> holder_objs;
  for (std::size_t h = 0; h < holders; ++h) holder_objs.push_back(add_object(snap, true));
  for (std::size_t i = 0; i < standing; ++i) {
    add_stub(snap, holder_objs[rng.below(holders)], make_ref_id(1, i + 1), ObjectId{1, i + 1});
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    add_stub(snap, add_object(snap, true), make_ref_id(1, standing + c + 1),
             ObjectId{1, standing + c + 1});
  }
  for (std::size_t e = 0; e < exports; ++e) {
    const ObjectSeq leaf = add_object(snap, e + kInFlightExports >= exports);
    add_scion(snap, leaf, make_ref_id(0, e + 1), 1);
  }
  return snap.pack();
}

SnapshotData rmi_server(std::size_t standing, std::size_t stored) {
  Shape snap;
  snap.snap.pid = 1;
  for (std::size_t i = 0; i < standing; ++i) {
    add_scion(snap, add_object(snap, true), make_ref_id(1, i + 1), 0);
  }
  std::uint64_t next_export = 1;
  for (std::size_t c = 0; c < kCallers; ++c) {
    const ObjectSeq sink = add_object(snap, true);
    add_scion(snap, sink, make_ref_id(1, standing + c + 1), 0);
    for (std::size_t k = 0; k < stored; ++k, ++next_export) {
      add_stub(snap, sink, make_ref_id(0, next_export), ObjectId{0, next_export});
    }
  }
  return snap.pack();
}

SnapshotData cycle_node(std::size_t chains, std::size_t objects, std::size_t rings,
                        std::uint64_t seed) {
  Rng rng(seed);
  Shape snap;
  snap.snap.pid = 0;
  std::vector<std::size_t> lengths(chains, objects / chains);
  for (std::size_t i = 0; i < chains; ++i) {  // move length around, keep the total
    const std::size_t a = rng.below(chains), b = rng.below(chains);
    if (lengths[a] > 1) --lengths[a], ++lengths[b];
  }
  std::vector<ObjectSeq> heads;
  for (std::size_t len : lengths) {
    ObjectSeq prev = add_object(snap, true);
    heads.push_back(prev);
    for (std::size_t k = 1; k < len; ++k) {
      const ObjectSeq o = add_object(snap, false);
      object(snap, prev).local_fields.push_back(o);
      prev = o;
    }
  }
  const ObjectSeq holder = add_object(snap, true);
  for (std::size_t k = 0; k < kCrossRefs; ++k) {
    const auto peer = static_cast<ProcessId>(1 + k % 2);
    add_scion(snap, heads[rng.below(heads.size())], make_ref_id(0, k + 1), peer);
    add_stub(snap, holder, make_ref_id(peer, k + 1), ObjectId{peer, k + 1});
  }
  for (std::size_t r = 0; r < rings; ++r) {
    const ObjectSeq head = add_object(snap, false);
    const ObjectSeq mid = add_object(snap, false);
    const ObjectSeq tail = add_object(snap, false);
    object(snap, head).local_fields.push_back(mid);
    object(snap, mid).local_fields.push_back(tail);
    add_scion(snap, head, make_ref_id(0, kCrossRefs + r + 1), 2);
    add_stub(snap, tail, make_ref_id(1, kCrossRefs + r + 1), ObjectId{1, objects + r + 1});
  }
  return snap.pack();
}

}  // namespace adgc::shapes
