// Graph summarization: SnapshotData → SummarizedGraph.
//
// Two interchangeable implementations:
//  * SccSummarizer — the one every Process runs: Tarjan condensation + one
//    bottom-up DP over the condensation DAG with bitset stub sets;
//    O(|E| + |V|·|stubs|/64).
//  * BfsSummarizer — one forward BFS per scion; simple, O(|scions|·|E|).
//    The reference the property tests and the ablation benchmark compare
//    SccSummarizer against.
// They must produce identical summaries (enforced by property tests).
#pragma once

#include <memory>
#include <string>

#include "src/snapshot/snapshot.h"

namespace adgc {

class Summarizer {
 public:
  virtual ~Summarizer() = default;
  virtual std::string name() const = 0;
  virtual SummarizedGraph summarize(const SnapshotData& snap) = 0;
};

class BfsSummarizer final : public Summarizer {
 public:
  std::string name() const override { return "bfs"; }
  SummarizedGraph summarize(const SnapshotData& snap) override;
};

class SccSummarizer final : public Summarizer {
 public:
  std::string name() const override { return "scc"; }
  SummarizedGraph summarize(const SnapshotData& snap) override;
};

/// Sorts set vectors and fills the inverse relation (ScionsTo from
/// StubsFrom); shared tail of both summarizers.
void finalize_summary(SummarizedGraph& out);

}  // namespace adgc
