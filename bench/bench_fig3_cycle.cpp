// Fig. 3 generalized — cost of detecting and reclaiming a simple
// distributed garbage cycle as a function of the number of processes it
// spans.
//
// The paper's Fig. 3 is the 4-process instance. For each ring size we
// report: CDMs sent, CDM bytes, total protocol messages, and the simulated
// time from root-drop to full reclamation. The shape to observe: one CDM
// per inter-process edge for the successful probe (linear in N), detection
// time linear in N (one network hop per edge), plus the acyclic DGC's
// unravelling rounds.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/sample_stats.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

struct RingResult {
  std::uint64_t cdms = 0;
  std::uint64_t cdm_bytes = 0;
  std::uint64_t messages = 0;
  SimTime reclaim_us = 0;   // simulated time from root-drop to empty
  bool collected = false;
};

RingResult run_ring(std::size_t n_procs, std::size_t objs_per_proc, std::uint64_t seed) {
  Runtime rt(n_procs, sim::fast_config(seed));
  const sim::Ring ring = sim::build_ring(rt, n_procs, objs_per_proc);
  rt.run_for(200'000);
  const Metrics before = rt.total_metrics();

  rt.proc(0).remove_root(ring.anchors[0].seq);
  const SimTime dropped = rt.now();
  RingResult res;
  // Step until empty (or give up).
  const SimTime deadline = dropped + 60'000'000;
  while (rt.now() < deadline) {
    rt.run_for(10'000);
    if (sim::global_stats(rt).total_objects == 0) {
      res.collected = true;
      break;
    }
  }
  const Metrics after = rt.total_metrics();
  res.cdms = after.cdms_sent.get() - before.cdms_sent.get();
  res.cdm_bytes = after.cdm_bytes.get() - before.cdm_bytes.get();
  res.messages = after.messages_sent.get() - before.messages_sent.get();
  res.reclaim_us = rt.now() - dropped;
  return res;
}

void BM_RingDetection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_ring(n, 3, seed++));
  }
}
BENCHMARK(BM_RingDetection)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::JsonReport report("fig3_cycle");
  bench::header(
      "Fig. 3 generalized — simple distributed cycle, ring of N processes\n"
      "(paper walkthrough: 4 processes, 4 CDMs for the successful probe)");
  std::printf("%-4s %-6s %10s %12s %12s %14s %10s\n", "N", "objs", "CDMs",
              "CDM bytes", "messages", "reclaim (ms)", "status");
  for (std::size_t n : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
    const RingResult r = run_ring(n, 3, 100 + n);
    std::printf("%-4zu %-6zu %10llu %12llu %12llu %14.1f %10s\n", n, n * 3,
                static_cast<unsigned long long>(r.cdms),
                static_cast<unsigned long long>(r.cdm_bytes),
                static_cast<unsigned long long>(r.messages),
                r.reclaim_us / 1000.0, r.collected ? "collected" : "TIMEOUT");
    report.add("ring_width", {{"processes", static_cast<double>(n)},
                              {"objs", static_cast<double>(n * 3)},
                              {"cdms", static_cast<double>(r.cdms)},
                              {"cdm_bytes", static_cast<double>(r.cdm_bytes)},
                              {"messages", static_cast<double>(r.messages)},
                              {"reclaim_ms", r.reclaim_us / 1000.0},
                              {"collected", r.collected ? 1.0 : 0.0}});
  }

  bench::header("Fig. 3 — per-process segment size sweep (N = 4 fixed)");
  std::printf("%-8s %10s %12s %14s %10s\n", "objs/P", "CDMs", "CDM bytes",
              "reclaim (ms)", "status");
  for (std::size_t objs : {1u, 3u, 10u, 30u, 100u}) {
    const RingResult r = run_ring(4, objs, 200 + objs);
    std::printf("%-8zu %10llu %12llu %14.1f %10s\n", objs,
                static_cast<unsigned long long>(r.cdms),
                static_cast<unsigned long long>(r.cdm_bytes), r.reclaim_us / 1000.0,
                r.collected ? "collected" : "TIMEOUT");
  }
  std::printf("\nNote: CDM count exceeds the N of the final successful probe because\n"
              "earlier probes run while the ring is still rooted and terminate\n"
              "negatively (Local.Reach), exactly as in the paper's design.\n");

  bench::header(
      "Fig. 3 — reclamation latency distribution across seeds (sim ms)\n"
      "(root-drop to empty heaps; dominated by the scan/snapshot cadence)");
  std::printf("%-4s %-50s\n", "N", "reclaim latency (ms)");
  for (std::size_t n : {2u, 4u, 8u}) {
    SampleStats lat;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      const RingResult r = run_ring(n, 3, 1000 + n * 100 + seed);
      if (r.collected) lat.add(static_cast<double>(r.reclaim_us) / 1000.0);
    }
    std::printf("%-4zu %-50s\n", n, lat.summary().c_str());
  }
  return 0;
}
