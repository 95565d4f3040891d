// Snapshot serializers.
//
// The paper's evaluation hinges on serializer quality: Rotor's reflective,
// allocation-heavy serializer took ~26 s for a 10k-object graph, while
// production .NET took 250-350 ms (~100×). We model both ends:
//
//  * BinarySerializer — length-prefixed little-endian bulk encoding
//    (the production .NET stand-in), the one every process persists with;
//  * NaiveSerializer (bench/naive_serializer.h) — field-by-field textual
//    encoding (the Rotor stand-in), for the serialization benchmark only.
//
// Both are lossless; round-trip equality is enforced by tests, and the
// serialization benchmark (bench_serialization) reproduces the paper's
// comparison shape.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"  // serializers throw DecodeError
#include "src/snapshot/snapshot.h"

namespace adgc {

class Serializer {
 public:
  virtual ~Serializer() = default;
  virtual std::string name() const = 0;
  virtual std::vector<std::byte> serialize(const SnapshotData& snap) const = 0;
  virtual SnapshotData deserialize(std::span<const std::byte> bytes) const = 0;
};

/// Fast bulk binary serializer (models production .NET).
class BinarySerializer final : public Serializer {
 public:
  std::string name() const override { return "binary"; }
  std::vector<std::byte> serialize(const SnapshotData& snap) const override;
  SnapshotData deserialize(std::span<const std::byte> bytes) const override;
};

}  // namespace adgc
