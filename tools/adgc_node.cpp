// adgc_node — standalone ADGC node: one collector process over real TCP.
//
// Runs one ADGC Process on the NodeRuntime (wall-clock timers, TCP frames
// to its peers), mirroring adgc_sim's workload/crash flags where they make
// sense for a single node of a real cluster.
//
//   adgc_node --id=N --listen=host:port --peers=0=h:p,1=h:p,...
//             [--state-dir=DIR] [--seed=S] [--run-ms=T]
//             [--plant-ring=NODES:OBJS] [--drop-root-after-ms=T]
//             [--crash-at-ms=T] [--status-every-ms=T]
//             [--lgc-ms=T] [--snapshot-ms=T] [--dcda-ms=T]
//             [--quarantine-ms=T] [--detect-timeout-ms=T] [--verbose]
//
//   --plant-ring        this node's slice of the deterministic Fig. 3 ring
//                       (see src/sim/cluster_plant.h); skipped automatically
//                       when the node recovered from a snapshot (restart).
//   --drop-root-after-ms  node 0 drops the ring anchor's root after this
//                       delay, turning the ring into distributed garbage.
//   --crash-at-ms       hard-kill hook for the crash-sweep fault model:
//                       _exit(137) without any drain, indistinguishable
//                       from kill -9 for everyone else.
//   --run-ms=0          run until SIGTERM/SIGINT (the default).
//
// Status lines (machine-readable, one per --status-every-ms) go to stdout:
//   NODE id=.. inc=.. t_ms=.. recovered=.. objects=.. chain_live=..
//        sentinel_live=.. stubs=.. scions=.. cycles=.. snaps=..
// A final "NODE-EXIT ..." line is printed on the clean SIGTERM drain path.
// Exit status: 0 on clean drain, 2 on usage errors, 3 when the cluster
// evicted this incarnation (a NODE-EVICTED line precedes the exit; the
// supervisor should simply respawn — the incarnation file bumps on start).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "src/common/log.h"
#include "src/rt/node_runtime.h"
#include "src/sim/cluster_plant.h"
#include "tools/cli_flags.h"

using namespace adgc;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  ProcessId id = kNoProcess;
  std::string listen;
  std::map<ProcessId, PeerAddr> peers;
  std::string state_dir;
  std::uint64_t seed = 1;
  SimTime run_ms = 0;  // 0 = until signal
  std::optional<sim::ClusterPlant> plant;
  SimTime drop_root_after_ms = 0;  // 0 = never
  SimTime crash_at_ms = 0;         // 0 = never
  SimTime status_every_ms = 200;
  // Collector tuning (wall-clock ms; defaults fit a localhost cluster).
  SimTime lgc_ms = 25, snapshot_ms = 60, dcda_ms = 80, quarantine_ms = 50;
  SimTime detect_timeout_ms = 2000;
  SimTime peer_death_timeout_ms = 0;  // 0 = eviction disabled
  bool batching = true;
  SimTime batch_flush_us = 0;  // 0 = keep the config default
  bool snapshot_pipeline = true;
  bool verbose = false;
  bool admin = false;
  std::uint16_t admin_port = 0;       // 0 = kernel-assigned
  SimTime stats_interval_ms = 0;      // 0 = no periodic stats line
  std::string trace_file;             // dump the trace ring here at exit
};

using cli::parse_flag;

// Single source of truth for the optional flags: the usage synopsis and the
// flag help below are both generated from this table.
constexpr cli::FlagSpec kNodeFlags[] = {
    {"--state-dir", "DIR", "persistent snapshot directory (restart recovery)"},
    {"--seed", "S", "RNG seed (default 1)"},
    {"--run-ms", "T", "wall-clock run time; 0 = until SIGTERM/SIGINT (default)"},
    {"--plant-ring", "NODES:OBJS",
     "this node's slice of the deterministic Fig. 3 ring;\n"
     "skipped automatically after a snapshot recovery"},
    {"--drop-root-after-ms", "T",
     "node 0 drops the ring anchor's root after this delay,\n"
     "turning the ring into distributed garbage (default: never)"},
    {"--crash-at-ms", "T",
     "hard-kill hook: _exit(137) without any drain,\n"
     "indistinguishable from kill -9 (default: never)"},
    {"--status-every-ms", "T", "status-line period on stdout (default 200)"},
    {"--lgc-ms", "T", "local GC period (default 25)"},
    {"--snapshot-ms", "T", "snapshot + summarize period (default 60)"},
    {"--dcda-ms", "T", "DCDA candidate-scan period (default 80)"},
    {"--quarantine-ms", "T", "candidate quarantine (default 50)"},
    {"--detect-timeout-ms", "T", "initiator-side detection timeout (default 2000)"},
    {"--peer-death-timeout-ms", "T",
     "silence, with probes unanswered, before a peer is\n"
     "evicted as permanently dead (default 0 = never evict);\n"
     "must exceed the longest partition you expect to survive"},
    {"--no-batching", nullptr,
     "one transport message per control message\n"
     "instead of per-peer batch frames"},
    {"--batch-flush-us", "T",
     "batch flush deadline (wall-clock us): the most\n"
     "latency batching may add to a control message\n"
     "(default: the config default)"},
    {"--no-snapshot-pipeline", nullptr,
     "serialize, persist and summarize each periodic snapshot\n"
     "synchronously on the actor thread instead of on the\n"
     "per-node background worker (default: pipeline on)"},
    {"--admin-port", "P",
     "serve the admin HTTP endpoint (/metrics, /healthz,\n"
     "/tracez) on 127.0.0.1:P; 0 binds a kernel-assigned\n"
     "port, announced by an ADMIN status line"},
    {"--stats-interval-ms", "T",
     "periodic one-line STATS log of the key counters and\n"
     "latency quantiles (default 0 = off)"},
    {"--trace-file", "FILE",
     "write the binary structured-event trace here on clean\n"
     "exit (convert with adgc_trace)"},
    {"--verbose", nullptr, "info-level logs"},
};
constexpr std::size_t kNumNodeFlags = sizeof(kNodeFlags) / sizeof(kNodeFlags[0]);

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  cli::print_usage_line(out, argv0, "--id=N --listen=host:port --peers=0=h:p,1=h:p,...",
                        kNodeFlags, kNumNodeFlags);
  std::fprintf(out, "\nflags (--batch-flush-us default: %llu):\n",
               static_cast<unsigned long long>(ProcessConfig{}.batch_flush_us));
  cli::print_flag_help(out, kNodeFlags, kNumNodeFlags);
  std::exit(code);
}

std::map<ProcessId, PeerAddr> parse_peers(const std::string& spec) {
  std::map<ProcessId, PeerAddr> peers;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--peers entry must be id=host:port: '" + entry + "'");
    }
    ProcessId pid = kNoProcess;
    if (!cli::parse_number(entry.substr(0, eq), &pid, 0, kNoProcess - 1)) {
      throw std::invalid_argument("--peers entry has a bad id: '" + entry + "'");
    }
    peers[pid] = parse_peer_addr(entry.substr(eq + 1));
    pos = comma + 1;
  }
  return peers;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--help", &v) || std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else if (parse_flag(argv[i], "--id", &v)) {
      if (!cli::parse_number(v, &opt.id, 0, kNoProcess - 1)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--listen", &v)) {
      opt.listen = v;
    } else if (parse_flag(argv[i], "--peers", &v)) {
      try {
        opt.peers = parse_peers(v);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0], 2);
      }
    } else if (parse_flag(argv[i], "--state-dir", &v)) {
      opt.state_dir = v;
    } else if (parse_flag(argv[i], "--seed", &v)) {
      if (!cli::parse_number(v, &opt.seed)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--run-ms", &v)) {
      if (!cli::parse_number(v, &opt.run_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--plant-ring", &v)) {
      const std::size_t colon = v.find(':');
      if (colon == std::string::npos) usage(argv[0], 2);
      sim::ClusterPlant plant;
      if (!cli::parse_number(v.substr(0, colon), &plant.nodes, 2) ||
          !cli::parse_number(v.substr(colon + 1), &plant.objs_per_node, 1)) {
        usage(argv[0], 2);
      }
      opt.plant = plant;
    } else if (parse_flag(argv[i], "--drop-root-after-ms", &v)) {
      if (!cli::parse_number(v, &opt.drop_root_after_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--crash-at-ms", &v)) {
      if (!cli::parse_number(v, &opt.crash_at_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--status-every-ms", &v)) {
      if (!cli::parse_number(v, &opt.status_every_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--lgc-ms", &v)) {
      if (!cli::parse_number(v, &opt.lgc_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--snapshot-ms", &v)) {
      if (!cli::parse_number(v, &opt.snapshot_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--dcda-ms", &v)) {
      if (!cli::parse_number(v, &opt.dcda_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--quarantine-ms", &v)) {
      if (!cli::parse_number(v, &opt.quarantine_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--detect-timeout-ms", &v)) {
      if (!cli::parse_number(v, &opt.detect_timeout_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--peer-death-timeout-ms", &v)) {
      if (!cli::parse_number(v, &opt.peer_death_timeout_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--no-batching", &v)) {
      opt.batching = false;
    } else if (parse_flag(argv[i], "--no-snapshot-pipeline", &v)) {
      opt.snapshot_pipeline = false;
    } else if (parse_flag(argv[i], "--batch-flush-us", &v)) {
      if (!cli::parse_number(v, &opt.batch_flush_us, 1)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--admin-port", &v)) {
      opt.admin = true;
      if (!cli::parse_number(v, &opt.admin_port)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--stats-interval-ms", &v)) {
      if (!cli::parse_number(v, &opt.stats_interval_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--trace-file", &v)) {
      opt.trace_file = v;
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      opt.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0], 2);
    }
  }
  if (opt.id == kNoProcess || opt.listen.empty()) usage(argv[0], 2);
  if (opt.plant && opt.id >= opt.plant->nodes) {
    std::fprintf(stderr, "--id is outside the --plant-ring node count\n");
    std::exit(2);
  }
  return opt;
}

struct Status {
  std::size_t objects = 0, chain_live = 0, stubs = 0, scions = 0;
  bool sentinel_live = true;
  std::uint64_t cycles = 0, snaps = 0, evictions = 0;
};

Status collect(NodeRuntime& node, const std::optional<sim::ClusterPlant>& plant) {
  Status st;
  node.post_sync([&](Process& p) {
    st.objects = p.heap().size();
    st.stubs = p.stubs().size();
    st.scions = p.scions().size();
    if (plant) {
      st.chain_live = plant->chain_live(p);
      st.sentinel_live = plant->sentinel_live(p);
    }
    st.cycles = p.metrics().scions_deleted_cyclic.get();
    st.snaps = p.metrics().snapshots_taken.get();
    st.evictions = p.metrics().peers_evicted.get();
  });
  return st;
}

void print_status(const char* tag, const Options& opt, NodeRuntime& node, SimTime t_ms) {
  const Status st = collect(node, opt.plant);
  std::printf("%s id=%u inc=%u t_ms=%llu recovered=%d objects=%zu chain_live=%zu "
              "sentinel_live=%d stubs=%zu scions=%zu cycles=%llu snaps=%llu "
              "evictions=%llu\n",
              tag, opt.id, node.incarnation(),
              static_cast<unsigned long long>(t_ms), node.recovered() ? 1 : 0,
              st.objects, st.chain_live, st.sentinel_live ? 1 : 0, st.stubs, st.scions,
              static_cast<unsigned long long>(st.cycles),
              static_cast<unsigned long long>(st.snaps),
              static_cast<unsigned long long>(st.evictions));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.verbose) Log::set_level(LogLevel::kInfo);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  NodeRuntime::Options nopts;
  nopts.pid = opt.id;
  nopts.listen = opt.listen;
  nopts.peers = opt.peers;
  nopts.state_dir = opt.state_dir;
  if (opt.admin) {
    nopts.admin_enabled = true;
    nopts.admin_listen = "127.0.0.1:" + std::to_string(opt.admin_port);
  }
  nopts.cfg.seed = opt.seed;
  nopts.cfg.proc.lgc_period_us = opt.lgc_ms * 1000;
  nopts.cfg.proc.snapshot_period_us = opt.snapshot_ms * 1000;
  nopts.cfg.proc.dcda_scan_period_us = opt.dcda_ms * 1000;
  nopts.cfg.proc.candidate_quarantine_us = opt.quarantine_ms * 1000;
  nopts.cfg.proc.detection_timeout_us = opt.detect_timeout_ms * 1000;
  nopts.cfg.proc.peer_death_timeout_us = opt.peer_death_timeout_ms * 1000;
  nopts.cfg.proc.batching_enabled = opt.batching;
  if (opt.batch_flush_us > 0) nopts.cfg.proc.batch_flush_us = opt.batch_flush_us;
  nopts.cfg.proc.snapshot_pipeline = opt.snapshot_pipeline;
  // Keep the per-candidate relaunch backoff short relative to the harness
  // timeout: a detection aborted by a peer crash must retry briskly.
  nopts.cfg.proc.detection_backoff_cap_us = 1'000'000;
  nopts.cfg.proc.scion_pending_grace_us = 2'000'000;

  NodeRuntime node(std::move(nopts));
  try {
    node.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adgc_node: start failed: %s\n", e.what());
    return 1;
  }
  if (opt.admin) {
    std::printf("ADMIN id=%u port=%u\n", opt.id, node.admin_port());
    std::fflush(stdout);
  }

  if (opt.plant && !node.recovered()) {
    const sim::ClusterPlant plant = *opt.plant;
    const ProcessId id = opt.id;
    node.post_sync([&plant, id](Process& p) { plant.plant_local(p, id); });
    std::printf("NODE-PLANTED id=%u nodes=%zu objs=%zu\n", id, plant.nodes,
                plant.objs_per_node);
    std::fflush(stdout);
  }

  const auto started = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - started)
                                    .count());
  };

  // Periodic one-line stats: counters + latency quantiles out of the atomic
  // metrics (safe to read off-thread).
  const auto print_stats = [&](SimTime t) {
    Metrics m = node.total_metrics();
    std::printf("STATS id=%u t_ms=%llu msgs=%llu cdms_sent=%llu detections=%llu "
                "cycles=%llu rmi_p50_us=%.0f rmi_p99_us=%.0f lgc_p99_us=%.0f "
                "batch_p50=%.0f\n",
                opt.id, static_cast<unsigned long long>(t),
                static_cast<unsigned long long>(m.messages_delivered.get()),
                static_cast<unsigned long long>(m.cdms_sent.get()),
                static_cast<unsigned long long>(m.detections_started.get()),
                static_cast<unsigned long long>(m.scions_deleted_cyclic.get()),
                static_cast<double>(m.rmi_rtt_us.quantile(0.5)),
                static_cast<double>(m.rmi_rtt_us.quantile(0.99)),
                static_cast<double>(m.lgc_pause_us.quantile(0.99)),
                static_cast<double>(m.batch_flush_msgs.quantile(0.5)));
    std::fflush(stdout);
  };
  const auto dump_trace = [&] {
    if (opt.trace_file.empty()) return;
    const std::vector<obs::Event> events = node.trace_events();
    const std::vector<std::byte> bytes = obs::serialize_trace(events);
    if (std::FILE* f = std::fopen(opt.trace_file.c_str(), "wb")) {
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
      std::printf("TRACE id=%u file=%s events=%zu\n", opt.id, opt.trace_file.c_str(),
                  events.size());
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "adgc_node: cannot write %s\n", opt.trace_file.c_str());
    }
  };

  bool root_dropped = false;
  SimTime next_status_ms = opt.status_every_ms;
  SimTime next_stats_ms = opt.stats_interval_ms;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const SimTime t = elapsed_ms();
    if (opt.crash_at_ms > 0 && t >= opt.crash_at_ms) {
      // The kill-9 hook: no drain, no flush, no destructors.
      std::_Exit(137);
    }
    if (!root_dropped && opt.plant && opt.id == 0 && opt.drop_root_after_ms > 0 &&
        t >= opt.drop_root_after_ms && !node.recovered()) {
      const sim::ClusterPlant plant = *opt.plant;
      node.post_sync([&plant](Process& p) { plant.drop_anchor_root(p); });
      root_dropped = true;
      std::printf("NODE-ROOT-DROPPED id=%u t_ms=%llu\n", opt.id,
                  static_cast<unsigned long long>(t));
      std::fflush(stdout);
    }
    if (node.self_evicted()) {
      // The cluster declared this incarnation dead and NACKed our traffic.
      // Continuing would only feed rejected frames; restart under a fresh
      // incarnation (our supervisor respawns us, the incarnation file bumps).
      std::printf("NODE-EVICTED id=%u inc=%u t_ms=%llu\n", opt.id, node.incarnation(),
                  static_cast<unsigned long long>(t));
      std::fflush(stdout);
      node.stop(0);
      return 3;
    }
    if (opt.status_every_ms > 0 && t >= next_status_ms) {
      print_status("NODE", opt, node, t);
      next_status_ms = t + opt.status_every_ms;
    }
    if (opt.stats_interval_ms > 0 && t >= next_stats_ms) {
      print_stats(t);
      next_stats_ms = t + opt.stats_interval_ms;
    }
    if (opt.run_ms > 0 && t >= opt.run_ms) break;
  }

  // Clean drain: stop the collectors, flush queued frames, report, exit 0.
  dump_trace();
  node.stop();
  print_status("NODE-EXIT", opt, node, elapsed_ms());
  return 0;
}
