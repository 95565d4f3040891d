// Table 1 reproduction — RMI cost, plain runtime vs DGC-extended.
//
// Paper setup: client and server co-located (no network latency masking),
// series of 10/100/500/1000 remote invocations of a method with 10
// arguments, each exporting/importing 10 fresh references, forcing the DGC
// to create 10 scions and stubs per call. Paper result (Rotor): 7%-21%
// overhead.
//
// Here: two simulated processes, zero-latency-ish network, wall-clock time
// of driving the invocation series through the runtime with the DGC hooks
// disabled (plain remoting) vs enabled (scion/stub creation, invocation
// counters, reference-listing bookkeeping). Absolute times are meaningless
// (simulated substrate); the *relative overhead column* is the reproduction
// target.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/rt/threaded_runtime.h"

namespace adgc {
namespace {

RuntimeConfig rmi_config(bool dgc) {
  RuntimeConfig cfg = sim::manual_config(1234);
  cfg.net.min_latency_us = 1;
  cfg.net.mean_latency_us = 2;
  cfg.proc.dgc_enabled = dgc;
  cfg.proc.dcda_enabled = dgc;
  return cfg;
}

/// Runs `calls` invocations, each exporting 10 fresh references, and
/// returns the wall time in ms. `lgc_every == 0` disables periodic local
/// GC during the series (the paper's Table 1 isolates stub/scion creation,
/// which "cannot be fulfilled lazily"; their series does not interleave
/// collections).
double run_series(int calls, bool dgc, int lgc_every = 0, bool obs = true) {
  RuntimeConfig cfg = rmi_config(dgc);
  // The obs-off leg of the observability-overhead extension: same switch
  // adgc_node exposes (trace_ring_capacity = 0 disables event stamping;
  // histogram recording is unconditional and thus paid by both legs).
  if (!obs) cfg.proc.trace_ring_capacity = 0;
  Runtime rt(2, cfg);
  const ObjectId client{0, rt.proc(0).create_object()};
  const ObjectId server{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(client.seq);
  rt.proc(1).add_root(server.seq);
  const RefId ref = rt.link(client, server);
  rt.run_for(10'000);

  bench::Stopwatch sw;
  for (int i = 0; i < calls; ++i) {
    std::vector<ArgRef> args;
    args.reserve(10);
    for (int a = 0; a < 10; ++a) {
      const ObjectSeq obj = rt.proc(0).create_object();
      rt.proc(0).add_root(obj);  // stays referenced at the caller, as in RMI
      args.push_back(ArgRef::own(obj));
    }
    // 4 KiB of marshalled by-value data per call: real remoting spends its
    // time on argument serialization, which both configurations pay alike
    // (the paper's baseline includes full remoting costs).
    rt.proc(0).invoke(client.seq, ref, InvokeEffect::kStoreArgs, std::move(args),
                      /*want_reply=*/true, /*payload_bytes=*/4096);
    rt.run_for(1'000);
    if (lgc_every > 0 && (i + 1) % lgc_every == 0) {
      // Both configurations run their local GC (Rotor's baseline has one
      // too); the DGC-extended one additionally pays the reference-listing
      // keep-up (stub recomputation + NewSetStubs).
      rt.proc(0).run_lgc();
      rt.proc(1).run_lgc();
      rt.run_for(1'000);
    }
  }
  rt.run_for(10'000);
  return sw.ms();
}

/// Wire-cost series: how many transport messages one RMI costs when its
/// control-plane traffic (AddScion acks here) is batched vs sent one
/// message each. Three processes: client P0 invokes server P1, passing 10
/// references it holds into owner P2 — every call runs 10 scion-first
/// handshakes, so the owner's ack stream is exactly the traffic the
/// batcher coalesces. Counts are deterministic (seeded simulation).
struct WireCost {
  double msgs_per_rmi = 0;
  double p50_burst_drain_us = 0;
};

WireCost run_wire_series(int bursts, int burst_size, bool batching) {
  RuntimeConfig cfg = rmi_config(true);
  cfg.proc.batching_enabled = batching;
  Runtime rt(3, cfg);
  const ObjectId client{0, rt.proc(0).create_object()};
  const ObjectId server{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(client.seq);
  rt.proc(1).add_root(server.seq);
  const RefId call_ref = rt.link(client, server);

  // P2 exports 10 objects to the client; the client re-exports them on
  // every call (third-party export → AddScion to P2 → ack back).
  std::vector<RefId> held;
  for (int i = 0; i < 10; ++i) {
    const ObjectSeq obj = rt.proc(2).create_object();
    rt.proc(2).add_root(obj);
    const ExportedRef er = rt.proc(2).export_own_object(obj, 0);
    held.push_back(rt.proc(0).install_ref(client.seq, er));
  }
  rt.run_for(10'000);

  const std::uint64_t msgs_before = rt.net_metrics().messages_sent.get();
  std::uint64_t expected_replies = rt.total_metrics().replies_received.get();
  std::vector<double> drain_us;
  drain_us.reserve(static_cast<std::size_t>(bursts));
  for (int b = 0; b < bursts; ++b) {
    const SimTime start = rt.proc(0).now();
    for (int i = 0; i < burst_size; ++i) {
      std::vector<ArgRef> args;
      args.reserve(held.size());
      for (const RefId r : held) args.push_back(ArgRef::held(r));
      rt.proc(0).invoke(client.seq, call_ref, InvokeEffect::kTouch, std::move(args));
    }
    expected_replies += static_cast<std::uint64_t>(burst_size);
    // Drain the burst: every invoke has completed its handshakes, crossed
    // the wire and been answered.
    SimTime guard = 0;
    while (rt.total_metrics().replies_received.get() < expected_replies &&
           guard < 5'000'000) {
      rt.run_for(50);
      guard += 50;
    }
    drain_us.push_back(static_cast<double>(rt.proc(0).now() - start));
  }
  const std::uint64_t msgs = rt.net_metrics().messages_sent.get() - msgs_before;

  WireCost out;
  out.msgs_per_rmi =
      static_cast<double>(msgs) / (static_cast<double>(bursts) * burst_size);
  std::sort(drain_us.begin(), drain_us.end());
  out.p50_burst_drain_us = drain_us[drain_us.size() / 2];
  return out;
}

/// Mutator-visible snapshot cost, asynchronous pipeline on vs off. Runs on
/// the ThreadedRuntime — the deterministic sim executes the pipeline stages
/// inline at request time (only publication is deferred), so only a real
/// background worker can show the win. The off leg blocks the actor thread
/// for the whole capture→serialize→persist→summarize pass (take_snapshot);
/// the on leg pays capture + hand-off only (request_snapshot). Each request
/// waits for its publish before the next one, so both legs run the same
/// number of full passes — identical store writes and summarizations, only
/// *where* the stages run differs.
struct SnapshotCost {
  double sync_us = 0;        // actor-blocked µs per snapshot (mutator-visible)
  double summarizations = 0; // full passes that published (completeness check)
  double persist_failures = 0;
};

SnapshotCost run_snapshot_series(int snapshots, bool pipeline) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("adgc_bench_snap_") + (pipeline ? "on" : "off"));
  fs::remove_all(dir);

  RuntimeConfig cfg;
  cfg.seed = 99;
  cfg.proc.periodic_collectors_enabled = false;  // snapshots driven by hand
  cfg.proc.snapshot_pipeline = pipeline;
  cfg.proc.snapshot_dir = dir.string();
  ThreadedRuntime rt(2, cfg);

  // A heap worth snapshotting: a payload-carrying spine plus a block of
  // remote references, so serialization, the store write and summarization
  // all have real work to move off the mutator path.
  std::vector<ExportedRef> exported(64);
  rt.post_sync(1, [&](Process& p) {
    for (auto& er : exported) {
      const ObjectSeq obj = p.create_object();
      p.add_root(obj);
      er = p.export_own_object(obj, 0);
    }
  });
  rt.post_sync(0, [&](Process& p) {
    ObjectSeq prev = kNoObject;
    for (int i = 0; i < 4000; ++i) {
      const ObjectSeq obj = p.create_object(/*payload_bytes=*/256);
      if (i % 16 == 0) p.add_root(obj);
      if (prev != kNoObject) p.add_local_ref(prev, obj);
      prev = obj;
    }
    const ObjectSeq holder = p.create_object();
    p.add_root(holder);
    for (const ExportedRef& er : exported) p.install_ref(holder, er);
  });

  const auto version = [&] {
    std::uint64_t v = 0;
    rt.post_sync(0, [&](Process& p) {
      if (auto s = p.current_summary()) v = s->version;
    });
    return v;
  };

  // One synchronous pass outside the window warms the store directory for
  // both legs alike.
  rt.post_sync(0, [](Process& p) { p.take_snapshot(); });

  double blocked_us = 0;
  for (int i = 0; i < snapshots; ++i) {
    // Mutate a little between passes (untimed), as a live mutator would.
    rt.post_sync(0, [&](Process& p) {
      const ObjectSeq obj = p.create_object(/*payload_bytes=*/128);
      p.add_root(obj);
    });
    rt.post_sync(0, [&](Process& p) {
      const auto t0 = std::chrono::steady_clock::now();
      if (pipeline) {
        p.request_snapshot();
      } else {
        p.take_snapshot();
      }
      blocked_us += std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    });
    // Await the publish so the on leg never coalesces.
    const std::uint64_t want = static_cast<std::uint64_t>(i) + 2;  // +warm pass
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (version() < want) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "snapshot %d never published (pipeline=%d)\n", i,
                     pipeline);
        rt.shutdown();
        fs::remove_all(dir);
        return {};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const Metrics m = rt.total_metrics();
  SnapshotCost out;
  out.sync_us = blocked_us / snapshots;
  out.summarizations = static_cast<double>(m.summarizations.get());
  out.persist_failures = static_cast<double>(m.snapshot_persist_failures.get());
  rt.shutdown();
  fs::remove_all(dir);
  return out;
}

void BM_RmiSeries(benchmark::State& state) {
  const int calls = static_cast<int>(state.range(0));
  const bool dgc = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_series(calls, dgc));
  }
}
BENCHMARK(BM_RmiSeries)
    ->ArgsProduct({{10, 100}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::JsonReport report("table1_rmi");
  bench::header(
      "Table 1 — RMI series cost: plain runtime vs DGC-extended\n"
      "(paper: Rotor vs Rotor w/ DGC; 10 refs exported per call;\n"
      " paper overhead 7.19% / 18.64% / 20.73% / 17.92%)");
  std::printf("%-12s %14s %16s %12s\n", "# RMI calls", "plain (ms)", "with DGC (ms)",
              "variation");
  for (int calls : {10, 100, 500, 1000}) {
    // Warm, then take the best of 5 to de-noise.
    double base = 1e100, dgc = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      base = std::min(base, run_series(calls, false));
      dgc = std::min(dgc, run_series(calls, true));
    }
    const double overhead = (dgc - base) / base * 100.0;
    std::printf("%-12d %14.2f %16.2f %11.2f%%\n", calls, base, dgc, overhead);
    report.add("rmi_series", {{"calls", static_cast<double>(calls)},
                              {"plain_ms", base},
                              {"dgc_ms", dgc},
                              {"overhead_pct", overhead}});
  }

  bench::header(
      "Extension — same series with reference-listing keep-up interleaved\n"
      "(local GC + NewSetStubs every 50 calls in BOTH configurations; the\n"
      " paper defers this cost outside its Table 1 measurement window)");
  std::printf("%-12s %14s %16s %12s\n", "# RMI calls", "plain (ms)", "with DGC (ms)",
              "variation");
  for (int calls : {100, 500, 1000}) {
    double base = 1e100, dgc = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      base = std::min(base, run_series(calls, false, 50));
      dgc = std::min(dgc, run_series(calls, true, 50));
    }
    const double overhead = (dgc - base) / base * 100.0;
    std::printf("%-12d %14.2f %16.2f %11.2f%%\n", calls, base, dgc, overhead);
    report.add("rmi_series_with_keepup", {{"calls", static_cast<double>(calls)},
                                          {"plain_ms", base},
                                          {"dgc_ms", dgc},
                                          {"overhead_pct", overhead}});
  }

  bench::header(
      "Extension — observability overhead: trace-ring event stamping on vs off\n"
      "(trace_ring_capacity 4096 vs 0, DGC-extended series; histograms record\n"
      " in both legs; bench_diff gates obs_overhead_pct at 5%)");
  std::printf("%-12s %16s %16s %12s\n", "# RMI calls", "obs off (ms)", "obs on (ms)",
              "overhead");
  for (int calls : {100, 1000}) {
    double off = 1e100, on = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      off = std::min(off, run_series(calls, true, 0, /*obs=*/false));
      on = std::min(on, run_series(calls, true, 0, /*obs=*/true));
    }
    const double overhead = (on - off) / off * 100.0;
    std::printf("%-12d %16.2f %16.2f %11.2f%%\n", calls, off, on, overhead);
    report.add("rmi_series_obs", {{"calls", static_cast<double>(calls)},
                                  {"obs_off_ms", off},
                                  {"obs_on_ms", on},
                                  {"obs_overhead_pct", overhead}});
  }

  bench::header(
      "Extension — transport messages per RMI, control-plane batching on/off\n"
      "(each call re-exports 10 held references: 10 AddScion handshakes\n"
      " whose acks are the batchable traffic; counts are deterministic)");
  std::printf("%-10s %14s %20s\n", "batching", "msgs/RMI", "p50 burst drain (us)");
  const int kBursts = 30, kBurstSize = 16;
  const WireCost off = run_wire_series(kBursts, kBurstSize, false);
  const WireCost on = run_wire_series(kBursts, kBurstSize, true);
  const double reduction = (off.msgs_per_rmi - on.msgs_per_rmi) / off.msgs_per_rmi * 100.0;
  const double p50_ratio = on.p50_burst_drain_us / off.p50_burst_drain_us;
  std::printf("%-10s %14.2f %20.0f\n", "off", off.msgs_per_rmi, off.p50_burst_drain_us);
  std::printf("%-10s %14.2f %20.0f\n", "on", on.msgs_per_rmi, on.p50_burst_drain_us);
  std::printf("message reduction: %.1f%%   p50 drain ratio (on/off): %.3f\n",
              reduction, p50_ratio);
  report.add("wire_cost", {{"batching", 0.0},
                           {"msgs_per_rmi", off.msgs_per_rmi},
                           {"p50_burst_drain_us", off.p50_burst_drain_us}});
  report.add("wire_cost", {{"batching", 1.0},
                           {"msgs_per_rmi", on.msgs_per_rmi},
                           {"p50_burst_drain_us", on.p50_burst_drain_us}});
  report.add("wire_cost_summary",
             {{"reduction_pct", reduction}, {"p50_ratio", p50_ratio}});

  bench::header(
      "Extension — mutator-visible snapshot cost, async pipeline on/off\n"
      "(threaded runtime, 4k-object heap persisted to disk; the off leg\n"
      " blocks the actor for the full pass, the on leg for capture only;\n"
      " bench_diff gates snapshot_sync_speedup at >= 5x)");
  const int kSnapshots = 25;
  const SnapshotCost sync_leg = run_snapshot_series(kSnapshots, false);
  const SnapshotCost pipe_leg = run_snapshot_series(kSnapshots, true);
  if (sync_leg.sync_us <= 0 || pipe_leg.sync_us <= 0) {
    std::printf("snapshot pipeline series FAILED\n");
    return 1;
  }
  const double speedup = sync_leg.sync_us / pipe_leg.sync_us;
  std::printf("%-10s %22s %16s %18s\n", "pipeline", "actor-blocked (us)",
              "summarizations", "persist failures");
  std::printf("%-10s %22.1f %16.0f %18.0f\n", "off", sync_leg.sync_us,
              sync_leg.summarizations, sync_leg.persist_failures);
  std::printf("%-10s %22.1f %16.0f %18.0f\n", "on", pipe_leg.sync_us,
              pipe_leg.summarizations, pipe_leg.persist_failures);
  std::printf("mutator-visible speedup (off/on): %.2fx\n", speedup);
  report.add("snapshot_pipeline", {{"pipeline", 0.0},
                                   {"snapshots", static_cast<double>(kSnapshots)},
                                   {"snapshot_sync_us", sync_leg.sync_us},
                                   {"summarizations", sync_leg.summarizations},
                                   {"persist_failures", sync_leg.persist_failures}});
  report.add("snapshot_pipeline", {{"pipeline", 1.0},
                                   {"snapshots", static_cast<double>(kSnapshots)},
                                   {"snapshot_sync_us", pipe_leg.sync_us},
                                   {"summarizations", pipe_leg.summarizations},
                                   {"persist_failures", pipe_leg.persist_failures}});
  report.add("snapshot_pipeline_summary", {{"snapshot_sync_speedup", speedup}});
  return 0;
}
