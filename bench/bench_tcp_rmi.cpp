// Table 1 variant over real TCP — RMI cost with kernel sockets in the path.
//
// Same shape as bench_table1_rmi (series of remote invocations, 10 fresh
// references exported per call, 4 KiB marshalled payload, DGC off vs on),
// but client and server are two NodeRuntimes wired through the TCP
// transport over localhost. Times now include real syscalls, framing,
// CRCs, and scheduler wakeups — the closest this reproduction gets to the
// paper's Rotor-on-a-LAN measurement conditions. The reproduction target
// is still the relative DGC overhead column, not absolute numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench/bench_common.h"
#include "src/rt/node_runtime.h"

namespace adgc {
namespace {

std::uint16_t reserve_port() {
  Metrics m;
  TcpTransport::Options o;
  o.self = 99;
  TcpTransport probe(o, m);
  probe.start();
  const std::uint16_t port = probe.port();
  probe.stop(0);
  return port;
}

RuntimeConfig node_cfg(bool dgc, std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.proc.dgc_enabled = dgc;
  cfg.proc.dcda_enabled = dgc;
  // Keep the periodic collectors out of the measurement window (Table 1
  // isolates per-call stub/scion cost, as in the in-sim benchmark).
  cfg.proc.lgc_period_us = 10'000'000;
  cfg.proc.snapshot_period_us = 10'000'000;
  cfg.proc.dcda_scan_period_us = 10'000'000;
  return cfg;
}

/// Runs `calls` invocations client→server over TCP; returns wall ms for the
/// whole series (every call awaited: the next call is issued only after the
/// reply to the previous one arrived — RMI is synchronous in the paper).
double run_series(int calls, bool dgc) {
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                               {1, {"127.0.0.1", p1}}};
  NodeRuntime::Options o0;
  o0.pid = 0;
  o0.cfg = node_cfg(dgc, 1);
  o0.listen = "127.0.0.1:" + std::to_string(p0);
  o0.peers = peers;
  NodeRuntime::Options o1 = o0;
  o1.pid = 1;
  o1.cfg = node_cfg(dgc, 2);
  o1.listen = "127.0.0.1:" + std::to_string(p1);

  NodeRuntime client(std::move(o0)), server(std::move(o1));
  client.start();
  server.start();

  ObjectSeq server_obj = kNoObject;
  server.post_sync([&](Process& p) {
    server_obj = p.create_object();
    p.add_root(server_obj);
  });
  ExportedRef exported;
  server.post_sync([&](Process& p) { exported = p.export_own_object(server_obj, 0); });

  ObjectSeq client_obj = kNoObject;
  RefId ref = kNoRef;
  client.post_sync([&](Process& p) {
    client_obj = p.create_object();
    p.add_root(client_obj);
    ref = p.install_ref(client_obj, exported);
  });

  const auto replies = [&] {
    std::uint64_t n = 0;
    client.post_sync([&](Process& p) { n = p.metrics().replies_received.get(); });
    return n;
  };

  bench::Stopwatch sw;
  std::uint64_t done = replies();
  for (int i = 0; i < calls; ++i) {
    client.post_sync([&](Process& p) {
      std::vector<ArgRef> args;
      args.reserve(10);
      for (int a = 0; a < 10; ++a) {
        const ObjectSeq obj = p.create_object();
        p.add_root(obj);
        args.push_back(ArgRef::own(obj));
      }
      p.invoke(client_obj, ref, InvokeEffect::kStoreArgs, std::move(args),
               /*want_reply=*/true, /*payload_bytes=*/4096);
    });
    // Synchronous RMI: spin (with a tiny yield) until the reply lands.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (replies() <= done) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "bench_tcp_rmi: reply %d never arrived\n", i);
        client.stop(0);
        server.stop(0);
        return -1.0;
      }
      std::this_thread::yield();
    }
    done = replies();
  }
  const double ms = sw.ms();
  client.stop(0);
  server.stop(0);
  return ms;
}

/// Wire-cost series over TCP: messages and bytes one RMI costs with
/// control-plane batching on vs off. Three nodes — client (0) invokes
/// server (1) passing 10 references it holds into owner (2); each call runs
/// 10 scion-first handshakes whose acks are the batchable stream. Calls are
/// pipelined per burst so the owner's ack traffic actually coalesces.
struct WireCost {
  double msgs_per_rmi = 0;
  double bytes_per_rmi = 0;
  double p50_burst_ms = 0;
};

WireCost run_wire_series(int bursts, int burst_size, bool batching) {
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port(), p2 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                               {1, {"127.0.0.1", p1}},
                                               {2, {"127.0.0.1", p2}}};
  auto opts = [&](ProcessId pid, std::uint16_t port) {
    NodeRuntime::Options o;
    o.pid = pid;
    o.cfg = node_cfg(true, pid + 1);
    o.cfg.proc.batching_enabled = batching;
    o.listen = "127.0.0.1:" + std::to_string(port);
    o.peers = peers;
    return o;
  };
  NodeRuntime client(opts(0, p0)), server(opts(1, p1)), owner(opts(2, p2));
  client.start();
  server.start();
  owner.start();

  ObjectSeq server_obj = kNoObject;
  server.post_sync([&](Process& p) {
    server_obj = p.create_object();
    p.add_root(server_obj);
  });
  ExportedRef call_target;
  server.post_sync([&](Process& p) { call_target = p.export_own_object(server_obj, 0); });

  std::vector<ExportedRef> exported(10);
  owner.post_sync([&](Process& p) {
    for (auto& er : exported) {
      const ObjectSeq obj = p.create_object();
      p.add_root(obj);
      er = p.export_own_object(obj, 0);
    }
  });

  ObjectSeq client_obj = kNoObject;
  RefId call_ref = kNoRef;
  std::vector<RefId> held(10);
  client.post_sync([&](Process& p) {
    client_obj = p.create_object();
    p.add_root(client_obj);
    call_ref = p.install_ref(client_obj, call_target);
    for (std::size_t i = 0; i < exported.size(); ++i) {
      held[i] = p.install_ref(client_obj, exported[i]);
    }
  });

  const auto replies = [&] {
    std::uint64_t n = 0;
    client.post_sync([&](Process& p) { n = p.metrics().replies_received.get(); });
    return n;
  };
  const auto wire_totals = [&](std::uint64_t* msgs, std::uint64_t* bytes) {
    Metrics total;
    total.merge(client.total_metrics());
    total.merge(server.total_metrics());
    total.merge(owner.total_metrics());
    *msgs = total.messages_sent.get();
    *bytes = total.bytes_sent.get();
  };

  // Warm the connections (and the handshake path) outside the window.
  client.post_sync([&](Process& p) {
    p.invoke(client_obj, call_ref, InvokeEffect::kTouch,
             {ArgRef::held(held[0])});
  });
  {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (replies() < 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "bench_tcp_rmi: wire-cost warmup stalled\n");
        client.stop(0);
        server.stop(0);
        owner.stop(0);
        return {};
      }
      std::this_thread::yield();
    }
  }

  std::uint64_t msgs_before = 0, bytes_before = 0;
  wire_totals(&msgs_before, &bytes_before);
  std::uint64_t expected = replies();
  std::vector<double> burst_ms;
  burst_ms.reserve(static_cast<std::size_t>(bursts));
  for (int b = 0; b < bursts; ++b) {
    bench::Stopwatch sw;
    client.post_sync([&](Process& p) {
      for (int i = 0; i < burst_size; ++i) {
        std::vector<ArgRef> args;
        args.reserve(held.size());
        for (const RefId r : held) args.push_back(ArgRef::held(r));
        p.invoke(client_obj, call_ref, InvokeEffect::kTouch, std::move(args));
      }
    });
    expected += static_cast<std::uint64_t>(burst_size);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (replies() < expected) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "bench_tcp_rmi: wire-cost burst %d stalled\n", b);
        client.stop(0);
        server.stop(0);
        owner.stop(0);
        return {};
      }
      std::this_thread::yield();
    }
    burst_ms.push_back(sw.ms());
  }
  std::uint64_t msgs_after = 0, bytes_after = 0;
  wire_totals(&msgs_after, &bytes_after);
  client.stop(0);
  server.stop(0);
  owner.stop(0);

  const double calls = static_cast<double>(bursts) * burst_size;
  WireCost out;
  out.msgs_per_rmi = static_cast<double>(msgs_after - msgs_before) / calls;
  out.bytes_per_rmi = static_cast<double>(bytes_after - bytes_before) / calls;
  std::sort(burst_ms.begin(), burst_ms.end());
  out.p50_burst_ms = burst_ms[burst_ms.size() / 2];
  return out;
}

/// Mutator-visible snapshot cost over a live TCP node pair, pipeline on vs
/// off — same protocol as the threaded leg in bench_table1_rmi (off leg:
/// take_snapshot blocks the actor for the full pass; on leg:
/// request_snapshot pays capture + hand-off only; every request awaits its
/// publish so neither leg coalesces), but here the snapshotted node also
/// holds real TCP-installed remote references, so stubs and scions cross
/// the summarizer.
struct SnapshotCost {
  double sync_us = 0;
  double summarizations = 0;
  double persist_failures = 0;
};

SnapshotCost run_snapshot_series(int snapshots, bool pipeline) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("adgc_bench_tcp_snap_") + (pipeline ? "on" : "off"));
  fs::remove_all(dir);

  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                               {1, {"127.0.0.1", p1}}};
  NodeRuntime::Options o0;
  o0.pid = 0;
  o0.cfg = node_cfg(true, 1);
  o0.cfg.proc.snapshot_pipeline = pipeline;
  o0.cfg.proc.snapshot_dir = (dir / "n0").string();
  o0.listen = "127.0.0.1:" + std::to_string(p0);
  o0.peers = peers;
  NodeRuntime::Options o1 = o0;
  o1.pid = 1;
  o1.cfg = node_cfg(true, 2);
  o1.cfg.proc.snapshot_pipeline = pipeline;
  o1.cfg.proc.snapshot_dir = (dir / "n1").string();
  o1.listen = "127.0.0.1:" + std::to_string(p1);

  NodeRuntime snap_node(std::move(o0)), owner(std::move(o1));
  snap_node.start();
  owner.start();

  std::vector<ExportedRef> exported(64);
  owner.post_sync([&](Process& p) {
    for (auto& er : exported) {
      const ObjectSeq obj = p.create_object();
      p.add_root(obj);
      er = p.export_own_object(obj, 0);
    }
  });
  snap_node.post_sync([&](Process& p) {
    ObjectSeq prev = kNoObject;
    for (int i = 0; i < 2000; ++i) {
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
    snap_node.post_sync([&](Process& p) {
      if (auto s = p.current_summary()) v = s->version;
    });
    return v;
  };

  // Warm pass (store dir) outside the window.
  snap_node.post_sync([](Process& p) { p.take_snapshot(); });

  double blocked_us = 0;
  for (int i = 0; i < snapshots; ++i) {
    snap_node.post_sync([&](Process& p) {
      const ObjectSeq obj = p.create_object(/*payload_bytes=*/128);
      p.add_root(obj);
    });
    snap_node.post_sync([&](Process& p) {
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
    const std::uint64_t want = static_cast<std::uint64_t>(i) + 2;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool ok = true;
    while (version() < want) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "bench_tcp_rmi: snapshot %d never published (pipeline=%d)\n",
                     i, pipeline);
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!ok) {
      snap_node.stop(0);
      owner.stop(0);
      fs::remove_all(dir);
      return {};
    }
  }
  const Metrics m = snap_node.total_metrics();
  SnapshotCost out;
  out.sync_us = blocked_us / snapshots;
  out.summarizations = static_cast<double>(m.summarizations.get());
  out.persist_failures = static_cast<double>(m.snapshot_persist_failures.get());
  snap_node.stop(0);
  owner.stop(0);
  fs::remove_all(dir);
  return out;
}

}  // namespace
}  // namespace adgc

int main() {
  using namespace adgc;
  bench::JsonReport report("tcp_rmi");
  bench::header(
      "Table 1 over real TCP — synchronous RMI series, localhost sockets\n"
      "(two adgc_node runtimes in-process; 10 refs exported per call,\n"
      " 4 KiB payload; reproduction target is the relative DGC overhead)");
  std::printf("%-12s %14s %16s %12s\n", "# RMI calls", "plain (ms)", "with DGC (ms)",
              "variation");
  for (int calls : {10, 100, 500, 1000}) {
    double base = 1e100, dgc = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const double b = run_series(calls, false);
      const double d = run_series(calls, true);
      if (b > 0) base = std::min(base, b);
      if (d > 0) dgc = std::min(dgc, d);
    }
    if (base >= 1e100 || dgc >= 1e100) {
      std::printf("%-12d %14s %16s %12s\n", calls, "FAILED", "FAILED", "-");
      continue;
    }
    const double overhead = (dgc - base) / base * 100.0;
    std::printf("%-12d %14.2f %16.2f %11.2f%%\n", calls, base, dgc, overhead);
    report.add("tcp_rmi_series", {{"calls", static_cast<double>(calls)},
                                  {"plain_ms", base},
                                  {"dgc_ms", dgc},
                                  {"overhead_pct", overhead}});
  }

  bench::header(
      "Extension — TCP transport messages & bytes per RMI, batching on/off\n"
      "(pipelined bursts; each call re-exports 10 held references, the\n"
      " owner's AddScion acks are the batchable stream)");
  std::printf("%-10s %14s %14s %18s\n", "batching", "msgs/RMI", "bytes/RMI",
              "p50 burst (ms)");
  const int kBursts = 12, kBurstSize = 16;
  const WireCost off = run_wire_series(kBursts, kBurstSize, false);
  const WireCost on = run_wire_series(kBursts, kBurstSize, true);
  if (off.msgs_per_rmi <= 0 || on.msgs_per_rmi <= 0) {
    std::printf("wire-cost series FAILED\n");
    return 1;
  }
  const double msg_reduction =
      (off.msgs_per_rmi - on.msgs_per_rmi) / off.msgs_per_rmi * 100.0;
  const double byte_reduction =
      (off.bytes_per_rmi - on.bytes_per_rmi) / off.bytes_per_rmi * 100.0;
  const double p50_ratio = on.p50_burst_ms / off.p50_burst_ms;
  std::printf("%-10s %14.2f %14.0f %18.2f\n", "off", off.msgs_per_rmi,
              off.bytes_per_rmi, off.p50_burst_ms);
  std::printf("%-10s %14.2f %14.0f %18.2f\n", "on", on.msgs_per_rmi,
              on.bytes_per_rmi, on.p50_burst_ms);
  std::printf("message reduction: %.1f%%   byte reduction: %.1f%%   "
              "p50 burst ratio (on/off): %.3f\n",
              msg_reduction, byte_reduction, p50_ratio);
  report.add("tcp_wire_cost", {{"batching", 0.0},
                               {"msgs_per_rmi", off.msgs_per_rmi},
                               {"bytes_per_rmi", off.bytes_per_rmi},
                               {"p50_burst_ms", off.p50_burst_ms}});
  report.add("tcp_wire_cost", {{"batching", 1.0},
                               {"msgs_per_rmi", on.msgs_per_rmi},
                               {"bytes_per_rmi", on.bytes_per_rmi},
                               {"p50_burst_ms", on.p50_burst_ms}});
  report.add("tcp_wire_cost_summary", {{"msg_reduction_pct", msg_reduction},
                                       {"byte_reduction_pct", byte_reduction}});

  bench::header(
      "Extension — mutator-visible snapshot cost over TCP nodes, pipeline on/off\n"
      "(2k-object heap + 64 TCP-installed remote refs, persisted to disk;\n"
      " bench_diff gates snapshot_sync_speedup at >= 5x)");
  const int kSnapshots = 15;
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
