// Ablation — §3 "Graph Summarization".
//
// The paper argues summarization is what keeps cycle detection cheap: the
// DCDA never touches the object graph, only scion/stub relations. This
// bench quantifies (a) the cost of producing the summary with the two
// implementations (per-scion BFS vs SCC condensation + bitset DP), and
// (b) how small the summary is relative to the snapshot it replaces.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/summarizer.h"

namespace adgc {
namespace {

/// Random process snapshot: n objects, avg `degree` local out-edges, and
/// `refs` stubs + `refs` scions attached to random objects.
SnapshotData random_snapshot(std::size_t n, double degree, std::size_t refs,
                             std::uint64_t seed) {
  Rng rng(seed);
  SnapshotData snap;
  snap.pid = 0;
  snap.objects.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    SnapshotData::Obj o;
    o.seq = i;
    snap.objects.push_back(std::move(o));
  }
  const auto edges = static_cast<std::size_t>(degree * static_cast<double>(n));
  for (std::size_t e = 0; e < edges; ++e) {
    snap.objects[rng.below(n)].local_fields.push_back(1 + rng.below(n));
  }
  snap.roots = {1 + rng.below(n), 1 + rng.below(n)};
  for (std::size_t r = 0; r < refs; ++r) {
    const RefId ref = make_ref_id(0, r + 1);
    snap.stubs.push_back({ref, ObjectId{1, r}, 0});
    snap.objects[rng.below(n)].remote_fields.push_back(ref);
    snap.scions.push_back({make_ref_id(9, r + 1), 1, 1 + rng.below(n), 0});
  }
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

double measure_ms(Summarizer& s, const SnapshotData& snap, int reps = 3) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    bench::Stopwatch sw;
    auto out = s.summarize(snap);
    benchmark::DoNotOptimize(out);
    best = std::min(best, sw.ms());
  }
  return best;
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
      const double tb = measure_ms(bfs, snap);
      const double ts = measure_ms(scc, snap);
      const std::size_t snap_bytes = ser.serialize(snap).size();
      const std::size_t sum_bytes = summary_footprint(scc.summarize(snap));
      std::printf("%-8zu %-6zu %12.2f %12.2f %9.1fx %14zu %14zu\n", n, refs, tb, ts,
                  tb / ts, snap_bytes, sum_bytes);
    }
  }
  std::printf("\nShape: BFS cost grows with scions x edges; SCC is near-linear in\n"
              "edges. The summary is orders of magnitude smaller than the\n"
              "snapshot — the paper's point: the DCDA works on a tiny residue.\n");
  return 0;
}
