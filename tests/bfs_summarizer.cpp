#include "tests/bfs_summarizer.h"

#include <unordered_map>
#include <vector>

namespace adgc {

namespace {

/// Objects reachable from `seeds` through local fields; `index` maps a seq
/// to the first object that carries it. Seeds are looked up by seq here, not
/// through the snapshot's own resolved indices, so those are checked too.
std::vector<bool> reachable(const SnapshotData& snap,
                            const std::unordered_map<ObjectSeq, std::size_t>& index,
                            const std::vector<ObjectSeq>& seeds) {
  std::vector<bool> seen(snap.num_objects(), false);
  std::vector<std::size_t> stack;
  auto push = [&](std::size_t i) {
    if (!seen[i]) {
      seen[i] = true;
      stack.push_back(i);
    }
  };
  for (ObjectSeq s : seeds) {
    if (auto it = index.find(s); it != index.end()) push(it->second);
  }
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    for (std::uint32_t next : snap.local(cur)) push(next);
  }
  return seen;
}

}  // namespace

SummarizedGraph BfsSummarizer::summarize(const SnapshotData& snap) {
  SummarizedGraph out;
  out.pid = snap.pid;
  out.taken_at = snap.taken_at;
  for (const auto& s : snap.scions) {
    out.scions.emplace(s.ref, ScionSummary{s.ref, s.ic, s.holder, s.target, {}});
  }
  for (const auto& s : snap.stubs) {
    out.stubs.emplace(s.ref, StubSummary{s.ref, s.ic, s.target, false, {}});
  }
  std::unordered_map<ObjectSeq, std::size_t> index;
  for (std::size_t i = 0; i < snap.num_objects(); ++i) index.emplace(snap.seqs[i], i);

  // Local.Reach: one BFS from the roots.
  const std::vector<bool> from_root = reachable(snap, index, snap.roots);
  for (std::size_t i = 0; i < snap.num_objects(); ++i) {
    if (!from_root[i]) continue;
    for (RefId ref : snap.remote(i)) {
      auto it = out.stubs.find(ref);
      if (it != out.stubs.end()) it->second.local_reach = true;
    }
  }

  // StubsFrom: one BFS per scion.
  for (const auto& s : snap.scions) {
    auto& sum = out.scions.at(s.ref);
    const std::vector<bool> reach = reachable(snap, index, {s.target});
    for (std::size_t i = 0; i < snap.num_objects(); ++i) {
      if (!reach[i]) continue;
      for (RefId ref : snap.remote(i)) {
        if (out.stubs.contains(ref)) sum.stubs_from.push_back(ref);
      }
    }
  }

  finalize_summary(out);
  return out;
}

bool summaries_equal(const SummarizedGraph& a, const SummarizedGraph& b) {
  if (a.pid != b.pid || a.taken_at != b.taken_at || a.scions.size() != b.scions.size() ||
      a.stubs.size() != b.stubs.size()) {
    return false;
  }
  for (const auto& [ref, sa] : a.scions) {
    const ScionSummary* sb = b.scion(ref);
    if (!sb || sa.ref != sb->ref || sa.ic != sb->ic || sa.holder != sb->holder ||
        sa.target != sb->target || sa.stubs_from != sb->stubs_from) {
      return false;
    }
  }
  for (const auto& [ref, ta] : a.stubs) {
    const StubSummary* tb = b.stub(ref);
    if (!tb || ta.ref != tb->ref || ta.ic != tb->ic || ta.target != tb->target ||
        ta.local_reach != tb->local_reach || ta.scions_to != tb->scions_to) {
      return false;
    }
  }
  return true;
}

}  // namespace adgc
