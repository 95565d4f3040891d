// libFuzzer harness over the snapshot deserializers (the bytes a process
// trusts during crash recovery). Contract: any input either deserializes to
// a snapshot — which must then re-serialize without throwing — or throws
// DecodeError. Recovery summarizes what the binary decoder accepts, so every
// accepted snapshot is summarized too, and SccSummarizer must agree with the
// BFS oracle of tests/bfs_summarizer.h; a disagreement aborts. See
// fuzz_message_decode.cpp for the build story.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "src/snapshot/serializer.h"
#include "tests/bfs_summarizer.h"

namespace {

void check_summary(const adgc::SnapshotData& snap) {
  static adgc::SccSummarizer scc;
  static adgc::BfsSummarizer oracle;
  if (!adgc::summaries_equal(scc.summarize(snap), oracle.summarize(snap))) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::byte> bytes(reinterpret_cast<const std::byte*>(data), size);
  static const adgc::BinarySerializer binary;
  static const adgc::NaiveSerializer naive;
  try {
    const adgc::SnapshotData snap = binary.deserialize(bytes);
    (void)binary.serialize(snap);
    check_summary(snap);
  } catch (const adgc::DecodeError&) {
  }
  try {
    const adgc::SnapshotData snap = naive.deserialize(bytes);
    (void)naive.serialize(snap);
    check_summary(snap);
  } catch (const adgc::DecodeError&) {
  }
  return 0;
}
