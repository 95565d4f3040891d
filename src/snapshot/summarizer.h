// Graph summarization: SnapshotData → SummarizedGraph.
//
// SccSummarizer is the one every Process runs: Tarjan condensation of the
// part of the heap the scion targets reach, then one bottom-up pass over
// that condensation with bitset stub sets that components share unless they
// hold a stub or join two sets. O(|V_s| + |E_s| + rows·|stubs_s|/64), where
// V_s, E_s and stubs_s are the objects, edges and stubs the scion targets
// reach and rows ≤ their components; plus one traversal from the roots for
// Local.Reach. tests/bfs_summarizer.h holds the per-scion BFS oracle it must
// equal.
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

class SccSummarizer final : public Summarizer {
 public:
  std::string name() const override { return "scc"; }
  SummarizedGraph summarize(const SnapshotData& snap) override;
};

/// Sorts set vectors and fills the inverse relation (ScionsTo from
/// StubsFrom); the shared tail of SccSummarizer and the test oracle.
void finalize_summary(SummarizedGraph& out);

}  // namespace adgc
