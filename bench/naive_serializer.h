// Slow, reflective-style text serializer (models Rotor): field-by-field
// textual encoding with per-value string formatting and hex-encoded
// payloads. bench_serialization sets it against BinarySerializer to
// reproduce the paper's §4 serializer comparison; round-trip equality is
// enforced by tests/test_serializers.
#pragma once

#include "src/snapshot/serializer.h"

namespace adgc {

class NaiveSerializer final : public Serializer {
 public:
  std::string name() const override { return "naive"; }
  std::vector<std::byte> serialize(const SnapshotData& snap) const override;
  SnapshotData deserialize(std::span<const std::byte> bytes) const override;
};

}  // namespace adgc
