#include "src/common/bytes.h"
#include "src/snapshot/serializer.h"

namespace adgc {

namespace {
constexpr std::uint32_t kMagic = 0x41444742;  // "ADGB"
}

std::vector<std::byte> BinarySerializer::serialize(const SnapshotData& snap) const {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(snap.pid);
  w.u64(snap.taken_at);

  w.u32(static_cast<std::uint32_t>(snap.roots.size()));
  for (ObjectSeq r : snap.roots) w.u64(r);

  static const std::vector<std::byte> kNoPayload;
  w.u32(static_cast<std::uint32_t>(snap.num_objects()));
  for (std::size_t i = 0; i < snap.num_objects(); ++i) {
    w.u64(snap.seqs[i]);
    const std::span<const std::uint32_t> local = snap.local(i);
    w.u32(static_cast<std::uint32_t>(local.size()));
    for (std::uint32_t t : local) w.u64(snap.seqs[t]);
    const std::span<const RefId> remote = snap.remote(i);
    w.u32(static_cast<std::uint32_t>(remote.size()));
    if (!remote.empty()) w.raw(remote.data(), remote.size() * sizeof(RefId));
    w.bytes(snap.payloads.empty() ? kNoPayload : snap.payloads[i]);
  }

  w.u32(static_cast<std::uint32_t>(snap.stubs.size()));
  for (const auto& s : snap.stubs) {
    w.u64(s.ref);
    w.object_id(s.target);
    w.u64(s.ic);
  }

  w.u32(static_cast<std::uint32_t>(snap.scions.size()));
  for (const auto& s : snap.scions) {
    w.u64(s.ref);
    w.u32(s.holder);
    w.u64(s.target);
    w.u64(s.ic);
  }
  return w.take();
}

SnapshotData BinarySerializer::deserialize(std::span<const std::byte> bytes) const {
  ByteReader r(bytes);
  if (r.u32() != kMagic) throw DecodeError("bad snapshot magic");
  SnapshotData snap;
  snap.pid = r.u32();
  snap.taken_at = r.u64();

  // Each count is checked against the bytes left before it sizes a vector.
  const std::uint32_t nroots = r.u32();
  if (nroots > r.remaining() / 8) throw DecodeError("roots overrun");
  snap.roots.reserve(nroots);
  for (std::uint32_t i = 0; i < nroots; ++i) snap.roots.push_back(r.u64());

  const std::uint32_t nobjs = r.u32();
  if (nobjs > r.remaining() / 20) throw DecodeError("objects overrun");  // seq + 3 lengths
  std::vector<ObjectSeq> local_seqs;  // resolved to indices by link_snapshot
  snap.seqs.reserve(nobjs);
  snap.payloads.reserve(nobjs);
  for (std::uint32_t i = 0; i < nobjs; ++i) {
    snap.seqs.push_back(r.u64());
    const std::uint32_t nl = r.u32();
    if (nl > r.remaining() / sizeof(ObjectSeq)) throw DecodeError("local fields overrun");
    for (std::uint32_t k = 0; k < nl; ++k) local_seqs.push_back(r.u64());
    snap.edge_at.push_back(static_cast<std::uint32_t>(local_seqs.size()));
    const std::uint32_t nr = r.u32();
    if (nr > r.remaining() / sizeof(RefId)) throw DecodeError("remote fields overrun");
    for (std::uint32_t k = 0; k < nr; ++k) snap.refs.push_back(r.u64());
    snap.ref_at.push_back(static_cast<std::uint32_t>(snap.refs.size()));
    snap.payloads.push_back(r.bytes());
  }

  const std::uint32_t nstubs = r.u32();
  if (nstubs > r.remaining() / 28) throw DecodeError("stubs overrun");
  snap.stubs.reserve(nstubs);
  for (std::uint32_t i = 0; i < nstubs; ++i) {
    SnapshotData::Stub s;
    s.ref = r.u64();
    s.target = r.object_id();
    s.ic = r.u64();
    snap.stubs.push_back(s);
  }

  const std::uint32_t nscions = r.u32();
  if (nscions > r.remaining() / 28) throw DecodeError("scions overrun");
  snap.scions.reserve(nscions);
  for (std::uint32_t i = 0; i < nscions; ++i) {
    SnapshotData::Scion s;
    s.ref = r.u64();
    s.holder = r.u32();
    s.target = r.u64();
    s.ic = r.u64();
    snap.scions.push_back(s);
  }
  r.expect_done();
  // Recovery adopts every object into a heap: a seq the heap cannot hold,
  // or one that appears twice, makes the snapshot unrestorable.
  if (!link_snapshot(snap, local_seqs)) {
    throw DecodeError("object seq repeated or out of range");
  }
  return snap;
}

}  // namespace adgc
