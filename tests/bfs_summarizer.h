// The equivalence oracle for SccSummarizer: one forward BFS per scion,
// O(|scions|·|E|), written to be obviously right rather than fast. The
// summarizer tests, the summarizer ablation bench and the snapshot-decode
// fuzz harness compare SccSummarizer's output with it.
#pragma once

#include <string>

#include "src/snapshot/summarizer.h"

namespace adgc {

class BfsSummarizer final : public Summarizer {
 public:
  std::string name() const override { return "bfs"; }
  SummarizedGraph summarize(const SnapshotData& snap) override;
};

/// True when both summaries hold the same scions and stubs with the same
/// ICs, holders, targets and relations.
bool summaries_equal(const SummarizedGraph& a, const SummarizedGraph& b);

}  // namespace adgc
