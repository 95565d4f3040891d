// Baseline comparison — DCDA vs distributed back-tracing (§5).
//
// The paper argues back-tracing (Maheshwari & Liskov '97) is "a direct
// acyclic chaining of recursive remote procedure calls, which is clearly
// unscalable", and that it forces every process to keep per-detection
// state. This bench quantifies both claims on identical garbage rings:
// messages exchanged, request-chain depth, and intermediate state records.
//
// Writes BENCH_baseline_backtrace.json: one row per collector per table row,
// gated by bench_diff on `processes` (identity), `messages` and `cdm_bytes`
// (wire counts) and `collected` (cycles the collector reported). Exits 1 if
// any collector reaches the wrong verdict.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench/bench_common.h"
#include "src/baseline/baselines.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

struct Comparison {
  std::uint64_t dcda_msgs = 0;
  std::uint64_t dcda_bytes = 0;
  std::uint64_t bt_msgs = 0;
  std::uint64_t bt_depth = 0;
  std::uint64_t dcda_found = 0;
  std::uint64_t bt_found = 0;
  bool dcda_ok = false;
  bool bt_ok = false;
};

Comparison compare(std::size_t n_procs, std::size_t deps, std::uint64_t seed) {
  Comparison cmp;
  // --- DCDA run ---
  {
    Runtime rt(n_procs + deps, sim::manual_config(seed));
    const sim::Ring ring = sim::build_ring(rt, n_procs, 2, /*pin_first=*/false);
    // Optional extra garbage dependencies converging on the head.
    for (std::size_t d = 0; d < deps; ++d) {
      const ProcessId pid = static_cast<ProcessId>(n_procs + d);
      const ObjectSeq w = rt.proc(pid).create_object();
      const ObjectSeq w2 = rt.proc(pid).create_object();
      rt.proc(pid).add_root(w2);
      rt.proc(pid).add_local_ref(w2, w);
      rt.link(ObjectId{pid, w}, ring.heads[0]);
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      rt.proc(pid).run_lgc();
      rt.proc(pid).take_snapshot();
    }
    rt.run_for(50'000);
    const Metrics before = rt.total_metrics();
    rt.proc(ring.ring_refs[0] != kNoRef ? ring.heads[1].owner : 0)
        .detector()
        .start_detection(ring.ring_refs[0], rt.now());
    rt.run_for(1'000'000);
    const Metrics after = rt.total_metrics();
    cmp.dcda_msgs = after.cdms_sent.get() - before.cdms_sent.get();
    cmp.dcda_bytes = after.cdm_bytes.get() - before.cdm_bytes.get();
    cmp.dcda_found = after.detections_cycle_found.get();
    cmp.dcda_ok = deps > 0 ? cmp.dcda_found == 0  // deps are live
                           : cmp.dcda_found == 1;
  }
  // --- Back-tracing run ---
  {
    Runtime rt(n_procs + deps, sim::manual_config(seed + 1));
    Baselines bl(rt);
    const sim::Ring ring = sim::build_ring(rt, n_procs, 2, /*pin_first=*/false);
    for (std::size_t d = 0; d < deps; ++d) {
      const ProcessId pid = static_cast<ProcessId>(n_procs + d);
      const ObjectSeq w = rt.proc(pid).create_object();
      const ObjectSeq w2 = rt.proc(pid).create_object();
      rt.proc(pid).add_root(w2);
      rt.proc(pid).add_local_ref(w2, w);
      rt.link(ObjectId{pid, w}, ring.heads[0]);
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      rt.proc(pid).run_lgc();
      rt.proc(pid).take_snapshot();
    }
    rt.run_for(50'000);
    const BaselineCounters before = bl.counters();
    bl.backtracer(ring.heads[1].owner).start(ring.ring_refs[0]);
    rt.run_for(1'000'000);
    const BaselineCounters after = bl.counters();
    cmp.bt_msgs = (after.backtrace_requests.get() - before.backtrace_requests.get()) +
                  (after.backtrace_replies.get() - before.backtrace_replies.get());
    std::uint32_t depth = 0;
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      depth = std::max(depth, bl.backtracer(pid).max_depth_seen());
    }
    cmp.bt_depth = depth;
    cmp.bt_found = after.backtrace_cycles_found.get();
    cmp.bt_ok = deps > 0 ? cmp.bt_found == 0 : cmp.bt_found == 1;
  }
  return cmp;
}

void BM_DcdaVsBacktrace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare(n, 0, seed));
    seed += 2;
  }
}
BENCHMARK(BM_DcdaVsBacktrace)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// JSON series name of one collector's row, e.g. "dcda_n8_deps2".
std::string series(const char* collector, std::size_t n, const char* what, std::size_t k) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_n%zu_%s%zu", collector, n, what, k);
  return buf;
}

/// One JSON row each for the DCDA and the back-tracer of table row
/// (n, what, k). Returns false if either reached the wrong verdict.
bool report_pair(bench::JsonReport& report, std::size_t n, const char* what, std::size_t k,
                 std::size_t procs, const Comparison& c) {
  const auto p = static_cast<double>(procs);
  report.add(series("dcda", n, what, k), {{"processes", p},
                                          {"messages", static_cast<double>(c.dcda_msgs)},
                                          {"cdm_bytes", static_cast<double>(c.dcda_bytes)},
                                          {"collected", static_cast<double>(c.dcda_found)}});
  report.add(series("backtrace", n, what, k), {{"processes", p},
                                               {"messages", static_cast<double>(c.bt_msgs)},
                                               {"depth", static_cast<double>(c.bt_depth)},
                                               {"collected", static_cast<double>(c.bt_found)}});
  return c.dcda_ok && c.bt_ok;
}

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::JsonReport report("baseline_backtrace");
  bool verdicts_ok = true;
  bench::header(
      "§5 quantified — DCDA vs distributed back-tracing on identical rings\n"
      "(one probe each, manual snapshots; both must reach the same verdict)");
  std::printf("%-4s %-5s %12s %12s %10s %10s %10s %8s %8s\n", "N", "deps",
              "DCDA msgs", "DCDA bytes", "BT msgs", "BT depth", "BT/DCDA", "DCDA ok",
              "BT ok");
  for (std::size_t n : {2u, 4u, 8u, 12u, 16u}) {
    for (std::size_t deps : {0u, 2u}) {
      const Comparison c = compare(n, deps, 900 + n * 10 + deps);
      std::printf("%-4zu %-5zu %12llu %12llu %10llu %10llu %9.1fx %8s %8s\n", n, deps,
                  static_cast<unsigned long long>(c.dcda_msgs),
                  static_cast<unsigned long long>(c.dcda_bytes),
                  static_cast<unsigned long long>(c.bt_msgs),
                  static_cast<unsigned long long>(c.bt_depth),
                  c.dcda_msgs ? static_cast<double>(c.bt_msgs) /
                                    static_cast<double>(c.dcda_msgs)
                              : 0.0,
                  c.dcda_ok ? "yes" : "NO", c.bt_ok ? "yes" : "NO");
      verdicts_ok &= report_pair(report, n, "deps", deps, n + deps, c);
    }
  }
  std::printf("\nShape: the back-tracer needs ~2 messages per hop (request+reply)\n"
              "and a synchronous chain as deep as the cycle, holding state at\n"
              "every intermediate process; the DCDA needs one CDM per hop and\n"
              "keeps state only at the initiator.\n");

  bench::header(
      "Three-way — DCDA probe vs back-trace vs global-trace epoch on a ring\n"
      "(global trace counts start+marks+polls+status+finish; it must involve\n"
      " EVERY process even when the garbage touches only the ring)");
  std::printf("%-4s %-7s %12s %10s %14s\n", "N", "extra", "DCDA msgs", "BT msgs",
              "GlobalTrace");
  for (std::size_t n : {4u, 8u, 16u}) {
    for (std::size_t bystanders : {0u, 8u}) {
      // `bystanders` = processes with no part in the garbage at all.
      const Comparison c = compare(n, 0, 1300 + n);
      Runtime rt(n + bystanders, sim::manual_config(1400 + n + bystanders));
      Baselines bl(rt);
      const sim::Ring ring = sim::build_ring(rt, n, 2, /*pin_first=*/false);
      // Give bystanders some live local data.
      for (std::size_t b = 0; b < bystanders; ++b) {
        const auto pid = static_cast<ProcessId>(n + b);
        const ObjectSeq o = rt.proc(pid).create_object();
        rt.proc(pid).add_root(o);
      }
      rt.run_for(30'000);
      const Metrics before = rt.total_metrics();
      std::vector<ProcessId> members;
      for (ProcessId pid = 0; pid < rt.size(); ++pid) members.push_back(pid);
      bl.gtrace(0).start_epoch(members);
      rt.run_for(2'000'000);
      const Metrics after = rt.total_metrics();
      const std::uint64_t gt_msgs =
          after.messages_sent.get() - before.messages_sent.get();
      // The epoch must end and delete exactly the ring's scions: the one cycle.
      const bool gt_collected = bl.gtrace(0).completed_epochs() == 1 &&
                                bl.counters().gt_scions_deleted.get() == ring.ring_refs.size();
      verdicts_ok &= report_pair(report, n, "extra", bystanders, n, c) && gt_collected;
      report.add(series("gtrace", n, "extra", bystanders),
                 {{"processes", static_cast<double>(n + bystanders)},
                  {"messages", static_cast<double>(gt_msgs)},
                  {"collected", gt_collected ? 1.0 : 0.0}});
      std::printf("%-4zu %-7zu %12llu %10llu %14llu\n", n, bystanders,
                  static_cast<unsigned long long>(c.dcda_msgs),
                  static_cast<unsigned long long>(c.bt_msgs),
                  static_cast<unsigned long long>(gt_msgs));
    }
  }
  std::printf("\nShape: DCDA and back-trace costs depend only on the garbage\n"
              "structure; the global trace pays per *process in the world*\n"
              "(polls/status), growing with bystanders that own no garbage.\n");
  if (!verdicts_ok) std::fprintf(stderr, "a collector reached the wrong verdict\n");
  return verdicts_ok ? 0 : 1;
}
