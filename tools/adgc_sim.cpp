// adgc_sim — command-line experiment driver.
//
// Runs a randomized distributed mutator workload on the simulated runtime
// with the full collector stack, then reports convergence and protocol
// metrics. Useful for exploring configurations without writing code.
//
//   adgc_sim [--procs=N] [--seed=S] [--loss=P] [--dup=P]
//            [--steps=K] [--rounds=R] [--settle-ms=T]
//            [--no-dcda] [--rmi-edges]
//            [--crash-every=R] [--verbose]
//   adgc_sim --chaos [--seed=S] [--loss=P] [--dup=P]
//   adgc_sim --compare-backoff [--seed=S] [--loss=P]
//
// --crash-every=R crashes and restarts a rotating victim process every R
// workload rounds (with persistent snapshots on, so restarts recover); the
// shadow oracle is resynced to the rolled-back state after each restart.
//
// --chaos runs the fault sweep's chaos preset (loss + duplication +
// reordering + rotating partitions + crash rotation over planted Fig. 3/
// Fig. 4 cycles);
// --compare-backoff runs the same scenario under sustained loss with the
// adaptive-degradation layer on and off and reports the retry traffic of
// both (the graceful-degradation acceptance numbers).
//
// Exit status: 0 if the run converged (no garbage left, no live object
// lost), 1 otherwise — usable as a soak-test in CI loops.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include <unistd.h>

#include "src/common/log.h"
#include "src/obs/trace.h"
#include "src/sim/fault_sweep.h"
#include "src/sim/harness.h"
#include "src/sim/workload.h"
#include "tools/cli_flags.h"

using namespace adgc;

namespace {

struct Options {
  std::size_t procs = 4;
  std::uint64_t seed = 1;
  double loss = 0.0;
  double dup = 0.0;
  int steps = 20;
  int rounds = 40;
  SimTime settle_ms = 30'000;
  bool dcda = true;
  bool rmi_edges = false;
  int crash_every = 0;  // 0 = no fault injection
  bool batching = true;
  SimTime batch_flush_us = 0;  // 0 = keep the config default
  bool snapshot_pipeline = true;
  SimTime snapshot_pipeline_latency_us = 0;  // 0 = keep the config default
  bool chaos = false;
  std::uint64_t peer_death_timeout_ms = 0;  // --chaos only; 0 = eviction off
  bool compare_backoff = false;
  bool verbose = false;
  std::string obs_dump;  // empty = no trace dump
};

using cli::parse_flag;

// The single source of truth for the workload-mode flags: both the usage
// synopsis and the --help flag table are generated from this.
constexpr cli::FlagSpec kWorkloadFlags[] = {
    {"--procs", "N", "number of simulated processes (default 4, min 2)"},
    {"--seed", "S", "RNG seed; runs are a pure function of it (default 1)"},
    {"--loss", "P", "message-loss probability in [0,1] (default 0)"},
    {"--dup", "P", "message-duplication probability in [0,1] (default 0)"},
    {"--steps", "K", "mutator steps per round (default 20)"},
    {"--rounds", "R", "workload rounds before settling (default 40)"},
    {"--settle-ms", "T", "simulated settle time after mutation stops (default 30000)"},
    {"--no-dcda", nullptr, "disable the cycle detector (acyclic DGC only)"},
    {"--rmi-edges", nullptr,
     "mutate references through RMI side effects; needs --loss=0\n"
     "so the shadow oracle stays exact"},
    {"--crash-every", "R",
     "crash+restart a rotating victim every R rounds, with\n"
     "persistent snapshots so restarts recover; the shadow\n"
     "oracle is resynced to the rolled-back state (default off)"},
    {"--no-batching", nullptr,
     "send every control message (CDM, NewSetStubs, AddScion\n"
     "ack) as its own transport message instead of coalescing\n"
     "per-peer batch frames (default: batching on)"},
    {"--batch-flush-us", "T",
     "batch flush deadline in simulated microseconds -- the\n"
     "most latency batching may add to a control message\n"
     "(default: the config default); ignored under --no-batching"},
    {"--no-snapshot-pipeline", nullptr,
     "publish each periodic snapshot's summary synchronously\n"
     "instead of deferring serialization, persistence and\n"
     "summarization off the mutator path (default: pipeline on)"},
    {"--snapshot-pipeline-latency-us", "T",
     "simulated delay between a pipelined snapshot capture and\n"
     "its summary publish (default: the config default);\n"
     "ignored under --no-snapshot-pipeline"},
    {"--obs-dump", "FILE",
     "write the merged structured-event trace of all processes\n"
     "to FILE in the binary format adgc_trace converts to\n"
     "Chrome trace JSON (docs/OBSERVABILITY.md)"},
    {"--verbose", nullptr, "per-round progress and info-level logs"},
};
constexpr std::size_t kNumWorkloadFlags =
    sizeof(kWorkloadFlags) / sizeof(kWorkloadFlags[0]);

constexpr cli::FlagSpec kChaosFlags[] = {
    {"--seed", "S", ""}, {"--loss", "P", ""}, {"--dup", "P", ""},
    {"--no-batching", nullptr, ""}, {"--no-snapshot-pipeline", nullptr, ""},
    {"--peer-death-timeout-ms", "T", ""},
};
constexpr cli::FlagSpec kBackoffFlags[] = {
    {"--seed", "S", ""}, {"--loss", "P", ""},
};

void print_usage(std::FILE* out, const char* argv0) {
  cli::print_usage_line(out, argv0, "", kWorkloadFlags, kNumWorkloadFlags);
  cli::print_usage_line(out, argv0, "--chaos", kChaosFlags,
                        sizeof(kChaosFlags) / sizeof(kChaosFlags[0]), "       ");
  cli::print_usage_line(out, argv0, "--compare-backoff", kBackoffFlags,
                        sizeof(kBackoffFlags) / sizeof(kBackoffFlags[0]), "       ");
  std::fprintf(out, "       %s --help\n", argv0);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::fprintf(stderr, "unknown or invalid flags; see --help for details\n");
  std::exit(2);
}

[[noreturn]] void help(const char* argv0) {
  print_usage(stdout, argv0);
  std::printf(
      "\n"
      "Runs a randomized distributed mutator workload on the simulated runtime\n"
      "with the full collector stack, then reports convergence and protocol\n"
      "metrics. Exit status 0 iff the run converged (no garbage left, no live\n"
      "object lost) -- usable as a soak test in CI loops.\n"
      "\n"
      "workload mode flags (--batch-flush-us default: %llu):\n",
      static_cast<unsigned long long>(ProcessConfig{}.batch_flush_us));
  cli::print_flag_help(stdout, kWorkloadFlags, kNumWorkloadFlags);
  std::printf(
      "\n"
      "alternate modes (exclusive with the workload flags above):\n"
      "  --chaos           composed chaos sweep: loss + duplication + reordering +\n"
      "                    rotating partitions + crash rotation over planted\n"
      "                    Fig. 3 / Fig. 4 cycles; exit 0 iff no garbage is left\n"
      "                    and every live sentinel is still reachable\n"
      "  --compare-backoff run the sustained-loss scenario with the adaptive\n"
      "                    degradation layer on and off and report the retry\n"
      "                    traffic of both; exit 0 iff adaptive reduced retries\n"
      "\n"
      "Unknown flags are an error (exit 2). For the real-TCP multi-process\n"
      "driver see adgc_node and cluster_harness (docs/DEPLOY.md); for the\n"
      "model-checking schedule explorer see adgc_mc (docs/MODEL_CHECKING.md).\n");
  std::exit(0);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--procs", &v)) {
      if (!cli::parse_number(v, &opt.procs, 2)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--seed", &v)) {
      if (!cli::parse_number(v, &opt.seed)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--loss", &v)) {
      if (!cli::parse_number(v, &opt.loss, 0.0, 1.0)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--dup", &v)) {
      if (!cli::parse_number(v, &opt.dup, 0.0, 1.0)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--steps", &v)) {
      if (!cli::parse_number(v, &opt.steps)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--rounds", &v)) {
      if (!cli::parse_number(v, &opt.rounds)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--settle-ms", &v)) {
      if (!cli::parse_number(v, &opt.settle_ms, 0, cli::kMaxMs)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--no-dcda", &v)) {
      opt.dcda = false;
    } else if (parse_flag(argv[i], "--crash-every", &v)) {
      if (!cli::parse_number(v, &opt.crash_every)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--no-batching", &v)) {
      opt.batching = false;
    } else if (parse_flag(argv[i], "--batch-flush-us", &v)) {
      if (!cli::parse_number(v, &opt.batch_flush_us, 1)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--no-snapshot-pipeline", &v)) {
      opt.snapshot_pipeline = false;
    } else if (parse_flag(argv[i], "--snapshot-pipeline-latency-us", &v)) {
      if (!cli::parse_number(v, &opt.snapshot_pipeline_latency_us, 1)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--rmi-edges", &v)) {
      opt.rmi_edges = true;
    } else if (parse_flag(argv[i], "--chaos", &v)) {
      opt.chaos = true;
    } else if (parse_flag(argv[i], "--peer-death-timeout-ms", &v)) {
      if (!cli::parse_number(v, &opt.peer_death_timeout_ms, 0, cli::kMaxMs)) usage(argv[0]);
    } else if (parse_flag(argv[i], "--compare-backoff", &v)) {
      opt.compare_backoff = true;
    } else if (parse_flag(argv[i], "--obs-dump", &v)) {
      opt.obs_dump = v;
      if (opt.obs_dump.empty()) usage(argv[0]);
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      opt.verbose = true;
    } else if (parse_flag(argv[i], "--help", &v) ||
               std::strcmp(argv[i], "-h") == 0) {
      help(argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  if (opt.rmi_edges && opt.loss > 0) {
    std::fprintf(stderr, "--rmi-edges requires --loss=0 (shadow oracle exactness)\n");
    std::exit(2);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.verbose) Log::set_level(LogLevel::kInfo);

  if (opt.chaos) {
    sim::FaultSweepParams cp = sim::chaos_preset(opt.seed);
    cp.batching = opt.batching;
    cp.snapshot_pipeline = opt.snapshot_pipeline;
    if (opt.loss > 0) cp.loss = opt.loss;
    if (opt.dup > 0) cp.dup = opt.dup;
    cp.peer_death_timeout_us = opt.peer_death_timeout_ms * 1000;
    std::printf(
        "chaos sweep: seed=%llu loss=%.2f dup=%.2f slices=%zu crashes=%s "
        "batching=%s pipeline=%s eviction=%s\n",
        static_cast<unsigned long long>(cp.seed), cp.loss, cp.dup, cp.slices,
        cp.crash == sim::CrashPlan::kRotate ? "on" : "off", cp.batching ? "on" : "off",
        cp.snapshot_pipeline ? "on" : "off", cp.peer_death_timeout_us > 0 ? "on" : "off");
    const sim::FaultSweepResult res = sim::run_fault_sweep(cp);
    const Metrics& m = res.metrics;
    std::printf("  crashes=%zu recovered=%zu messages_lost=%llu\n", res.crashes,
                res.recovered, static_cast<unsigned long long>(m.messages_lost.get()));
    std::printf("  suspects=%llu deferred=%llu abandoned_handshakes=%llu\n",
                static_cast<unsigned long long>(m.peer_suspect_transitions.get()),
                static_cast<unsigned long long>(m.detections_deferred_backoff.get()),
                static_cast<unsigned long long>(m.add_scion_abandoned.get()));
    if (!res.ok()) {
      std::printf("CHAOS FAILED: %s\n", res.detail.c_str());
      return 1;
    }
    std::printf("CHAOS OK: all planted cycles reclaimed, no live object lost.\n");
    return 0;
  }

  if (opt.compare_backoff) {
    const double loss = opt.loss > 0 ? opt.loss : 0.30;
    std::printf("backoff comparison: seed=%llu loss=%.2f\n",
                static_cast<unsigned long long>(opt.seed), loss);
    const sim::BackoffComparison cmp = sim::run_backoff_comparison(opt.seed, loss);
    std::printf("  adaptive: retry_messages=%llu total_messages=%llu\n",
                static_cast<unsigned long long>(cmp.adaptive_retry_messages),
                static_cast<unsigned long long>(cmp.adaptive_total_messages));
    std::printf("  fixed:    retry_messages=%llu total_messages=%llu\n",
                static_cast<unsigned long long>(cmp.fixed_retry_messages),
                static_cast<unsigned long long>(cmp.fixed_total_messages));
    std::printf(cmp.adaptive_reduced()
                    ? "adaptive backoff reduced retry traffic.\n"
                    : "adaptive backoff did NOT reduce retry traffic.\n");
    return cmp.adaptive_reduced() ? 0 : 1;
  }

  RuntimeConfig cfg = sim::fast_config(opt.seed);
  cfg.net.loss_probability = opt.loss;
  cfg.net.duplicate_probability = opt.dup;
  cfg.proc.dcda_enabled = opt.dcda;
  cfg.proc.batching_enabled = opt.batching;
  if (opt.batch_flush_us > 0) cfg.proc.batch_flush_us = opt.batch_flush_us;
  cfg.proc.snapshot_pipeline = opt.snapshot_pipeline;
  if (opt.snapshot_pipeline_latency_us > 0) {
    cfg.proc.snapshot_pipeline_latency_us = opt.snapshot_pipeline_latency_us;
  }
  // The crash runs' snapshot directory carries the pid, as the fault
  // sweep's does, so concurrent runs of one seed keep apart; it is removed
  // on every way out.
  struct RemovedOnExit {
    std::filesystem::path dir;
    ~RemovedOnExit() {
      std::error_code ec;
      if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    }
  } crash_dir;
  if (opt.crash_every > 0) {
    crash_dir.dir = std::filesystem::temp_directory_path() /
                    ("adgc_sim_crash_" + std::to_string(::getpid()) + "_" +
                     std::to_string(opt.seed));
    std::filesystem::remove_all(crash_dir.dir);
    cfg.proc.snapshot_dir = crash_dir.dir.string();
  }
  Runtime rt(opt.procs, cfg);

  sim::WorkloadParams wp;
  wp.use_rmi_edges = opt.rmi_edges;
  sim::RandomWorkload workload(rt, wp, opt.seed * 31 + 7);

  std::printf("adgc_sim: %s\n", cfg.describe().c_str());
  std::printf("workload: %d rounds x %d steps, rmi_edges=%s\n", opt.rounds, opt.steps,
              opt.rmi_edges ? "on" : "off");

  ProcessId next_victim = 0;
  for (int round = 0; round < opt.rounds; ++round) {
    workload.steps(static_cast<std::size_t>(opt.steps));
    rt.run_for(15'000);
    if (opt.crash_every > 0 && (round + 1) % opt.crash_every == 0) {
      const ProcessId victim = next_victim;
      next_victim = static_cast<ProcessId>((next_victim + 1) % opt.procs);
      rt.crash(victim);
      rt.run_for(20'000);
      const bool recovered = rt.restart(victim);
      workload.sync_after_restart(victim);
      if (opt.verbose) {
        std::printf("round %d: crashed+restarted P%u (inc %u, %s)\n", round, victim,
                    rt.incarnation(victim), recovered ? "recovered" : "cold start");
      }
    }
    if (auto violation = workload.find_safety_violation()) {
      std::printf("SAFETY VIOLATION at round %d: live %s was collected\n", round,
                  to_string(*violation).c_str());
      return 1;
    }
  }

  std::printf("mutation done; settling for %llu ms (simulated)...\n",
              static_cast<unsigned long long>(opt.settle_ms));
  rt.run_for(opt.settle_ms * 1000);

  const sim::GlobalStats st = sim::global_stats(rt);
  const auto live = workload.shadow().live();
  const Metrics totals = rt.total_metrics();
  std::printf("final: objects=%zu oracle-live=%zu garbage=%zu stubs=%zu scions=%zu\n",
              st.total_objects, live.size(), st.garbage_objects, st.stubs, st.scions);
  std::printf("degradation: abandoned_handshakes=%llu suspects=%llu\n",
              static_cast<unsigned long long>(totals.add_scion_abandoned.get()),
              static_cast<unsigned long long>(totals.peer_suspect_transitions.get()));
  std::printf("\nprotocol metrics:\n%s", totals.report("  ").c_str());

  if (!opt.obs_dump.empty()) {
    const std::vector<obs::Event> events = rt.trace_events();
    const std::vector<std::byte> bytes = obs::serialize_trace(events);
    std::ofstream out(opt.obs_dump, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.obs_dump.c_str());
      return 1;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("TRACE file=%s events=%zu\n", opt.obs_dump.c_str(), events.size());
  }

  if (!workload.converged()) {
    std::printf("\nNOT CONVERGED (garbage left or live objects missing)\n");
    return 1;
  }
  std::printf("\nCONVERGED: heap == oracle live set on every process.\n");
  return 0;
}
