// libFuzzer harness over the binary snapshot decoder (the bytes a process
// trusts during crash recovery). Contract: any input either deserializes to
// a snapshot — which must then re-serialize without throwing — or throws
// DecodeError. Recovery summarizes what the decoder accepts, restores a heap
// from it and runs LGCs on that heap, so every accepted snapshot goes
// through all three here: SccSummarizer must agree with the BFS oracle of
// tests/bfs_summarizer.h, and lgc::run on the restored heap with the LGC
// oracle of tests/lgc_oracle.h; a disagreement aborts. See
// fuzz_message_decode.cpp for the build story.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "src/snapshot/serializer.h"
#include "tests/bfs_summarizer.h"
#include "tests/lgc_oracle.h"

namespace {

void check_summary(const adgc::SnapshotData& snap) {
  static adgc::SccSummarizer scc;
  static adgc::BfsSummarizer oracle;
  if (!adgc::summaries_equal(scc.summarize(snap), oracle.summarize(snap))) std::abort();
}

/// Restores `snap` as recovery does and runs two LGCs on it (the second on
/// a swept heap with cached slots), each checked against the oracle.
void check_recovery(const adgc::SnapshotData& snap) {
  adgc::Heap heap;
  adgc::StubTable stubs;
  adgc::ScionTable scions;
  adgc::restore_snapshot(snap, heap, stubs, scions, /*now=*/0);
  const std::set<adgc::RefId> pinned;
  for (int round = 0; round < 2; ++round) {
    const adgc::LgcOutcome want = adgc::expected_lgc(heap, stubs, scions, pinned);
    const adgc::lgc::Result res = adgc::lgc::run(heap, stubs, scions, pinned, 0);
    if (!(adgc::observed_lgc(heap, stubs, scions, res) == want)) std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::byte> bytes(reinterpret_cast<const std::byte*>(data), size);
  static const adgc::BinarySerializer binary;
  try {
    const adgc::SnapshotData snap = binary.deserialize(bytes);
    (void)binary.serialize(snap);
    check_summary(snap);
    check_recovery(snap);
  } catch (const adgc::DecodeError&) {
  }
  return 0;
}
