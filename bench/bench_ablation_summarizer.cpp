// Ablation — §3 "Graph Summarization".
//
// The paper argues summarization is what keeps cycle detection cheap: the
// DCDA never touches the object graph, only scion/stub relations. This
// bench quantifies (a) the cost of producing the summary with the per-scion
// BFS oracle (tests/bfs_summarizer.h) and with the SCC summarizer every
// process runs, on random heaps, (b) how small the summary is relative to
// the snapshot it replaces, and (c) the SCC summarizer's cost on the node
// heaps of the repository benchmark (tests/heap_shapes.h), with (d) the
// cost of lgc::run and capture_snapshot on the same heaps. It exits 1 if
// the SCC summary of a node heap differs from the oracle's.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/lgc/mark_sweep.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/summarizer.h"
#include "tests/bfs_summarizer.h"
#include "tests/heap_shapes.h"
#include "tests/snapshot_builder.h"

namespace adgc {
namespace {

/// Random process snapshot: n objects, avg `degree` local out-edges, and
/// `refs` stubs + `refs` scions attached to random objects.
SnapshotData random_snapshot(std::size_t n, double degree, std::size_t refs,
                             std::uint64_t seed) {
  Rng rng(seed);
  SnapshotData snap;
  snap.pid = 0;
  std::vector<SnapshotObject> objects(n);
  for (std::size_t i = 1; i <= n; ++i) objects[i - 1].seq = i;
  const auto edges = static_cast<std::size_t>(degree * static_cast<double>(n));
  for (std::size_t e = 0; e < edges; ++e) {
    objects[rng.below(n)].local_fields.push_back(1 + rng.below(n));
  }
  snap.roots = {1 + rng.below(n), 1 + rng.below(n)};
  for (std::size_t r = 0; r < refs; ++r) {
    const RefId ref = make_ref_id(0, r + 1);
    snap.stubs.push_back({ref, ObjectId{1, r}, 0});
    objects[rng.below(n)].remote_fields.push_back(ref);
    snap.scions.push_back({make_ref_id(9, r + 1), 1, 1 + rng.below(n), 0});
  }
  pack_objects(snap, objects);
  return snap;
}

void BM_Summarize(benchmark::State& state) {
  const bool scc = state.range(0) != 0;
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto refs = static_cast<std::size_t>(state.range(2));
  const SnapshotData snap = random_snapshot(n, 2.0, refs, 42);
  BfsSummarizer bfs;
  SccSummarizer sccs;
  Summarizer& s = scc ? static_cast<Summarizer&>(sccs)
                            : static_cast<Summarizer&>(bfs);
  for (auto _ : state) {
    auto out = s.summarize(snap);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(std::string(scc ? "scc" : "bfs") + " n=" + std::to_string(n) +
                 " refs=" + std::to_string(refs));
}
BENCHMARK(BM_Summarize)
    ->ArgsProduct({{0, 1}, {1'000, 10'000}, {16, 128}})
    ->Unit(benchmark::kMillisecond);

/// Fastest, median and slowest of `reps` timed calls of `fn`, in ms.
struct Spread {
  double min, median, max;
};
template <class Fn>
Spread time_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    bench::Stopwatch sw;
    fn();
    ms.push_back(sw.ms());
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2], ms.back()};
}
Spread measure_ms(Summarizer& s, const SnapshotData& snap, int reps) {
  return time_ms(reps, [&] {
    auto out = s.summarize(snap);
    benchmark::DoNotOptimize(out);
  });
}

std::size_t summary_footprint(const SummarizedGraph& g) {
  std::size_t bytes = 0;
  for (const auto& [ref, s] : g.scions) {
    bytes += sizeof(s) + s.stubs_from.size() * sizeof(RefId);
  }
  for (const auto& [ref, s] : g.stubs) {
    bytes += sizeof(s) + s.scions_to.size() * sizeof(RefId);
  }
  return bytes;
}

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::header(
      "Ablation — graph summarization cost and compression\n"
      "(per-scion BFS vs SCC condensation; summary size vs snapshot size)");
  std::printf("%-8s %-6s %12s %12s %10s %14s %14s\n", "objects", "refs", "bfs (ms)",
              "scc (ms)", "speedup", "snap bytes", "summary bytes");
  BfsSummarizer bfs;
  SccSummarizer scc;
  BinarySerializer ser;
  for (std::size_t n : {1'000u, 5'000u, 20'000u, 50'000u}) {
    for (std::size_t refs : {16u, 64u, 256u}) {
      const SnapshotData snap = random_snapshot(n, 2.0, refs, 77);
      const double tb = measure_ms(bfs, snap, 3).min;
      const double ts = measure_ms(scc, snap, 3).min;
      const std::size_t snap_bytes = ser.serialize(snap).size();
      const std::size_t sum_bytes = summary_footprint(scc.summarize(snap));
      std::printf("%-8zu %-6zu %12.2f %12.2f %9.1fx %14zu %14zu\n", n, refs, tb, ts,
                  tb / ts, snap_bytes, sum_bytes);
    }
  }
  std::printf("\nShape: BFS cost grows with scions x edges; SCC is near-linear in\n"
              "edges. The summary is orders of magnitude smaller than the\n"
              "snapshot — the paper's point: the DCDA works on a tiny residue.\n");

  bench::header(
      "Summarization on the repository benchmark's node heaps\n"
      "(perfbench rmi_churn client and server, one cycle_reclaim node; 21 passes)");
  std::printf("%-14s %8s %8s %8s %10s %10s %10s\n", "heap", "objects", "stubs", "scions",
              "min (ms)", "p50 (ms)", "max (ms)");
  const std::pair<const char*, SnapshotData> heaps[] = {
      {"rmi client", shapes::rmi_client(20, 20'000, 10'240, 1)},
      {"rmi server", shapes::rmi_server(20'000, 2'560)},
      {"cycle node", shapes::cycle_node(2'000, 20'000, 5, 1)},
  };
  for (const auto& [name, snap] : heaps) {
    if (!summaries_equal(scc.summarize(snap), bfs.summarize(snap))) {
      std::fprintf(stderr, "%s: SCC summary differs from the BFS oracle's\n", name);
      return 1;
    }
    const Spread t = measure_ms(scc, snap, 21);
    std::printf("%-14s %8zu %8zu %8zu %10.2f %10.2f %10.2f\n", name, snap.num_objects(),
                snap.stubs.size(), snap.scions.size(), t.min, t.median, t.max);
  }

  bench::header(
      "LGC and capture on the same node heaps\n"
      "(restored from each shape, one LGC to settle, then 21 passes of each)");
  std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "heap", "lgc min", "lgc p50",
              "lgc max", "cap min", "cap p50", "cap max");
  for (const auto& [name, snap] : heaps) {
    Heap heap;
    StubTable stubs;
    ScionTable scions;
    restore_snapshot(snap, heap, stubs, scions, 0);
    const std::set<RefId> pinned;
    (void)lgc::run(heap, stubs, scions, pinned, 0);
    const Spread g = time_ms(21, [&] { (void)lgc::run(heap, stubs, scions, pinned, 0); });
    const Spread c = time_ms(21, [&] {
      auto out = capture_snapshot(snap.pid, 0, heap, stubs, scions);
      benchmark::DoNotOptimize(out);
    });
    std::printf("%-14s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n", name, g.min, g.median,
                g.max, c.min, c.median, c.max);
  }
  return 0;
}
