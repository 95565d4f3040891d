// SCC-condensation summarizer, seeded from the scion targets.
//
// StubsFrom(s) depends only on what s.target reaches, so Tarjan's algorithm
// starts from the scion targets alone and never visits any other object.
// It emits strongly connected components sinks-first (reverse topological
// order of the condensation), so one pass in emission order sees every
// successor's stub set complete before the component that points at it.
//
// Stub sets are bitsets over the stubs that visited objects hold, numbered
// as they are met. A component gets a row of its own only when it holds a
// stub or joins two different non-empty successor rows; any other shares its
// one non-empty successor's row, or has none. Rows are counted before they
// are allocated. A scion's StubsFrom is the row of its target's component.
// Local.Reach is a walk of its own from the roots. The snapshot's edges are
// object indices already, so nothing is looked up by seq.
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/walk.h"
#include "src/snapshot/summarizer.h"

namespace adgc {

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// Seeds scion/stub summary entries (ids, ICs, targets; relations empty).
void init_summary_entries(const SnapshotData& snap, SummarizedGraph& out) {
  out.pid = snap.pid;
  out.taken_at = snap.taken_at;
  out.scions.reserve(snap.scions.size());
  for (const auto& s : snap.scions) {
    out.scions.try_emplace(s.ref, ScionSummary{s.ref, s.ic, s.holder, s.target, {}});
  }
  out.stubs.reserve(snap.stubs.size());
  for (const auto& s : snap.stubs) {
    out.stubs.try_emplace(s.ref, StubSummary{s.ref, s.ic, s.target, false, {}});
  }
}

}  // namespace

SummarizedGraph SccSummarizer::summarize(const SnapshotData& snap) {
  SummarizedGraph out;
  init_summary_entries(snap, out);
  const std::size_t n = snap.num_objects();

  // --- Tarjan SCC from the scion targets, iterative ---
  // Visited objects are numbered in visit order (their Tarjan index). Visit
  // v's resolved local edges (object indices) are edges[edge_at[v],
  // edge_at[v+1]), and the bit numbers of the stubs it holds held[held_at[v],
  // held_at[v+1]): each is resolved once, on the visit.
  // low and comp are by visit number; comp is kNone while on the stack.
  // Component c's members are members[comp_at[c], comp_at[c+1]).
  std::vector<std::uint32_t> num(n, kNone);  // object index -> visit number
  std::vector<std::uint32_t> low, comp, tarjan_stack, members, comp_at{0};
  std::vector<std::uint32_t> edges, held, edge_at{0}, held_at{0};
  std::vector<RefId> stub_ids;  // bit number -> stub, numbered as first met
  std::unordered_map<RefId, std::uint32_t> stub_bit;

  auto visit = [&](std::uint32_t obj) {
    const auto v = static_cast<std::uint32_t>(low.size());
    num[obj] = v;
    low.push_back(v);
    comp.push_back(kNone);
    tarjan_stack.push_back(v);
    const std::span<const std::uint32_t> local = snap.local(obj);
    edges.insert(edges.end(), local.begin(), local.end());
    edge_at.push_back(static_cast<std::uint32_t>(edges.size()));
    for (RefId ref : snap.remote(obj)) {
      if (!out.stubs.contains(ref)) continue;
      const auto [it, fresh] =
          stub_bit.try_emplace(ref, static_cast<std::uint32_t>(stub_ids.size()));
      if (fresh) stub_ids.push_back(ref);
      held.push_back(it->second);
    }
    held_at.push_back(static_cast<std::uint32_t>(held.size()));
    return v;
  };

  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;  // next position in `edges`
  };
  std::vector<Frame> call_stack;
  std::vector<std::uint32_t> target;  // scion -> target object index
  target.reserve(snap.scions.size());
  for (const auto& s : snap.scions) {
    const std::uint32_t start = s.obj;
    target.push_back(start);
    if (start == kNone || num[start] != kNone) continue;
    const std::uint32_t v0 = visit(start);
    call_stack.push_back({v0, edge_at[v0]});
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.edge < edge_at[f.v + 1]) {
        const std::uint32_t obj = edges[f.edge++];
        const std::uint32_t w = num[obj];
        if (w == kNone) {
          const std::uint32_t v = visit(obj);
          call_stack.push_back({v, edge_at[v]});
        } else if (comp[w] == kNone) {
          low[f.v] = std::min(low[f.v], w);
        }
        continue;
      }
      const std::uint32_t v = f.v;
      call_stack.pop_back();
      if (low[v] == v) {
        const auto c = static_cast<std::uint32_t>(comp_at.size() - 1);
        std::uint32_t w = kNone;
        do {
          w = tarjan_stack.back();
          tarjan_stack.pop_back();
          comp[w] = c;
          members.push_back(w);
        } while (w != v);
        comp_at.push_back(static_cast<std::uint32_t>(members.size()));
      }
      if (!call_stack.empty()) {
        std::uint32_t& parent_low = low[call_stack.back().v];
        parent_low = std::min(parent_low, low[v]);
      }
    }
  }
  const std::size_t num_comps = comp_at.size() - 1;

  // --- rows: count them, then allocate once and fill in emission order ---
  // Row r belongs to component row_comp[r] and unions the rows
  // joined[join_at[r], join_at[r+1]); last_joiner[r] is the last component
  // that listed it.
  std::vector<std::uint32_t> row_of(num_comps, kNone);
  std::vector<std::uint32_t> row_comp, joined, join_at, last_joiner;
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    const auto first = static_cast<std::uint32_t>(joined.size());
    bool holds = false;
    for (std::uint32_t k = comp_at[c]; k < comp_at[c + 1]; ++k) {
      const std::uint32_t v = members[k];
      holds = holds || held_at[v] != held_at[v + 1];
      for (std::uint32_t e = edge_at[v]; e < edge_at[v + 1]; ++e) {
        const std::uint32_t d = comp[num[edges[e]]];
        const std::uint32_t r = d == c ? kNone : row_of[d];
        if (r == kNone || last_joiner[r] == c) continue;
        last_joiner[r] = c;
        joined.push_back(r);
      }
    }
    if (holds || joined.size() - first >= 2) {
      row_of[c] = static_cast<std::uint32_t>(row_comp.size());
      row_comp.push_back(c);
      join_at.push_back(first);
      last_joiner.push_back(kNone);
    } else {
      if (joined.size() > first) row_of[c] = joined[first];
      joined.resize(first);
    }
  }
  join_at.push_back(static_cast<std::uint32_t>(joined.size()));

  // Rows are numbered in emission order, so every row a row joins is done.
  const std::size_t words = (stub_ids.size() + 63) / 64;
  std::vector<std::uint64_t> rows(row_comp.size() * words, 0);
  for (std::size_t r = 0; r < row_comp.size(); ++r) {
    std::uint64_t* mine = rows.data() + r * words;
    const std::uint32_t c = row_comp[r];
    for (std::uint32_t k = comp_at[c]; k < comp_at[c + 1]; ++k) {
      const std::uint32_t v = members[k];
      for (std::uint32_t h = held_at[v]; h < held_at[v + 1]; ++h) {
        mine[held[h] / 64] |= std::uint64_t{1} << (held[h] % 64);
      }
    }
    for (std::uint32_t j = join_at[r]; j < join_at[r + 1]; ++j) {
      const std::uint64_t* theirs = rows.data() + joined[j] * words;
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
    }
  }

  for (std::size_t i = 0; i < snap.scions.size(); ++i) {
    if (target[i] == kNone) continue;  // dangling scion: empty relation
    const std::uint32_t r = row_of[comp[num[target[i]]]];
    if (r == kNone) continue;
    const std::uint64_t* bits = rows.data() + r * words;
    auto& from = out.scions.at(snap.scions[i].ref).stubs_from;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t word = bits[w]; word; word &= word - 1) {
        from.push_back(stub_ids[w * 64 + static_cast<std::size_t>(__builtin_ctzll(word))]);
      }
    }
  }

  // --- Local.Reach: the stubs held by objects reachable from the roots ---
  std::vector<bool> from_root(n, false);
  walk<std::uint32_t>(
      snap.root_objs,
      [&](std::uint32_t i) {
        if (from_root[i]) return false;
        from_root[i] = true;
        return true;
      },
      [&](std::uint32_t i, const auto& visit) {
        for (RefId ref : snap.remote(i)) {
          auto it = out.stubs.find(ref);
          if (it != out.stubs.end()) it->second.local_reach = true;
        }
        for (std::uint32_t t : snap.local(i)) visit(t);
        return true;
      });

  finalize_summary(out);
  return out;
}

}  // namespace adgc
