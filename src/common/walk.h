// The one graph traversal: breadth-first reachability from a seed set.
//
// Every reachability question in the repository goes through it: the local
// GC's two-colour mark over heap slots, the summarizer's Local.Reach over a
// snapshot's object indices, and the model checker's global oracles over
// ObjectIds across processes. Each caller supplies its own node type and two
// callbacks, in the trace_roots / trace_object split of a textbook tracer:
//   mark(n)        → true the first time it sees a node that exists, after
//                    marking it; false otherwise (the walk skips n);
//   scan(n, visit) → calls visit(m) for each successor m of n; returns false
//                    to stop the walk (an oracle that found a violation).
// Nodes are marked in breadth-first order, seeds first, so a caller that
// collects them into a hash set fills it in a fixed order: the simulator's
// workload draws from such sets, and its runs stay a function of the seed.
#pragma once

#include <cstddef>
#include <vector>

namespace adgc {

/// Marks and scans everything reachable from `seeds`. Returns false iff a
/// scan stopped the walk.
template <class Node, class Seeds, class Mark, class Scan>
bool walk(const Seeds& seeds, Mark&& mark, Scan&& scan) {
  std::vector<Node> queue;
  const auto visit = [&](const Node& n) {
    if (mark(n)) queue.push_back(n);
  };
  for (const auto& s : seeds) visit(s);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Node n = queue[i];
    if (!scan(n, visit)) return false;
  }
  return true;
}

}  // namespace adgc
