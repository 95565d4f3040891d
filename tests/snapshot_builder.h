// Builds a SnapshotData by hand from objects in seq form, the form the
// snapshot file stores. The tests, the benches, the corpus generator and the
// naive serializer's decoder use it; processes capture and decode the flat
// arrays directly.
#pragma once

#include <vector>

#include "src/snapshot/snapshot.h"

namespace adgc {

struct SnapshotObject {
  ObjectSeq seq = kNoObject;
  std::vector<ObjectSeq> local_fields;
  std::vector<RefId> remote_fields;
  std::vector<std::byte> payload;
};

/// Lays `objects` out as the flat graph of `snap` and links it; the roots
/// and scions set on `snap` first are resolved too. Payloads are kept when
/// any object has one. Returns link_snapshot's verdict.
bool pack_objects(SnapshotData& snap, const std::vector<SnapshotObject>& objects);

}  // namespace adgc
