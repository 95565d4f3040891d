#include "tests/snapshot_builder.h"

#include <algorithm>

namespace adgc {

bool pack_objects(SnapshotData& snap, const std::vector<SnapshotObject>& objects) {
  snap.seqs.clear();
  snap.edge_at.assign(1, 0);
  snap.ref_at.assign(1, 0);
  snap.refs.clear();
  snap.payloads.clear();
  std::vector<ObjectSeq> local_seqs;
  const bool payloads = std::any_of(objects.begin(), objects.end(),
                                    [](const auto& o) { return !o.payload.empty(); });
  for (const SnapshotObject& o : objects) {
    snap.seqs.push_back(o.seq);
    local_seqs.insert(local_seqs.end(), o.local_fields.begin(), o.local_fields.end());
    snap.edge_at.push_back(static_cast<std::uint32_t>(local_seqs.size()));
    snap.refs.insert(snap.refs.end(), o.remote_fields.begin(), o.remote_fields.end());
    snap.ref_at.push_back(static_cast<std::uint32_t>(snap.refs.size()));
    if (payloads) snap.payloads.push_back(o.payload);
  }
  return link_snapshot(snap, local_seqs);
}

}  // namespace adgc
