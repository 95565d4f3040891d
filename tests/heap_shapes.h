// The node heaps of the repository benchmark (perfbench/) as snapshots, at
// full size or scaled down. The summarizer tests check SccSummarizer against
// the oracle on them, and the summarizer ablation times it on them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/snapshot/snapshot.h"

namespace adgc::shapes {

/// rmi_churn's client: `holders` rooted objects share `standing` stubs into
/// the server, 4 rooted callers hold one stub each to their sink, and
/// `exports` leaf objects are scion targets held by the server. The last 40
/// exports, those of the calls in flight, are still rooted.
/// Full size: rmi_client(20, 20'000, 10'240, seed).
SnapshotData rmi_client(std::size_t holders, std::size_t standing, std::size_t exports,
                        std::uint64_t seed);

/// rmi_churn's server: `standing` rooted leaf objects that are scion targets,
/// and 4 rooted sinks, scion targets too, each holding `stored` stubs to the
/// exports of its caller's last calls. Full size: rmi_server(20'000, 2'560).
SnapshotData rmi_server(std::size_t standing, std::size_t stored);

/// One cycle_reclaim node: `objects` quiet objects in `chains` rooted chains
/// of seeded lengths, 16 scions on random chain heads, one rooted holder of
/// 16 stubs, and `rings` unrooted 3-object ring segments whose head is a
/// scion target and whose tail holds a stub. Full size:
/// cycle_node(2'000, 20'000, 5, seed).
SnapshotData cycle_node(std::size_t chains, std::size_t objects, std::size_t rings,
                        std::uint64_t seed);

}  // namespace adgc::shapes
