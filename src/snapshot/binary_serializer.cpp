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

  w.u32(static_cast<std::uint32_t>(snap.objects.size()));
  for (const auto& o : snap.objects) {
    w.u64(o.seq);
    w.u32(static_cast<std::uint32_t>(o.local_fields.size()));
    if (!o.local_fields.empty()) {
      w.raw(o.local_fields.data(), o.local_fields.size() * sizeof(ObjectSeq));
    }
    w.u32(static_cast<std::uint32_t>(o.remote_fields.size()));
    if (!o.remote_fields.empty()) {
      w.raw(o.remote_fields.data(), o.remote_fields.size() * sizeof(RefId));
    }
    w.bytes(o.payload);
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
  snap.objects.reserve(nobjs);
  for (std::uint32_t i = 0; i < nobjs; ++i) {
    SnapshotData::Obj o;
    o.seq = r.u64();
    const std::uint32_t nl = r.u32();
    if (nl > r.remaining() / sizeof(ObjectSeq)) throw DecodeError("local fields overrun");
    o.local_fields.reserve(nl);
    for (std::uint32_t k = 0; k < nl; ++k) o.local_fields.push_back(r.u64());
    const std::uint32_t nr = r.u32();
    if (nr > r.remaining() / sizeof(RefId)) throw DecodeError("remote fields overrun");
    o.remote_fields.reserve(nr);
    for (std::uint32_t k = 0; k < nr; ++k) o.remote_fields.push_back(r.u64());
    o.payload = r.bytes();
    snap.objects.push_back(std::move(o));
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
  return snap;
}

}  // namespace adgc
