// cluster_harness — end-to-end multi-process test driver.
//
//   cluster_harness --node-bin=PATH [--nodes=N] [--objs=K] [--no-kill]
//                   [--kill-forever | --zombie] [--peer-death-timeout-ms=T]
//                   [--timeout-ms=T] [--state-dir=DIR] [--seed=S] [--verbose]
//                   [--admin-base-port=P] [--obs-dump=DIR]
//
// Forks N adgc_node processes on localhost, plants the Fig. 3 ring across
// them, drops the anchor root, SIGKILLs node 1 mid-detection and restarts
// it (unless --no-kill), and waits for DCDA to reclaim the cross-process
// cycle. Exit 0 on success, 1 on failure — suitable as a ctest entry.
//
// Eviction legs (both default --peer-death-timeout-ms to 2500 when unset):
//   --kill-forever  SIGKILL node 1 permanently; the survivors must evict it
//                   and drain every stranded stub/scion.
//   --zombie        SIGSTOP node 1, wait for the survivors to evict it and
//                   clean up, SIGCONT it; the stale incarnation must be
//                   NACKed off (exit 3), then respawn and re-integrate.
//
// Observability legs (docs/OBSERVABILITY.md):
//   --admin-base-port=P  node i serves its admin endpoint on P+i; once the
//                        cluster converges, the harness scrapes /metrics and
//                        /healthz from every surviving node and fails unless
//                        the Prometheus exposition parses with non-zero key
//                        counters and >=5 histograms.
//   --obs-dump=DIR       each node writes DIR/node<i>.trace (binary trace,
//                        convertible with adgc_trace) on clean shutdown; the
//                        harness fails if a surviving node leaves none.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>

#include "src/sim/cluster_harness.h"
#include "tools/cli_flags.h"

namespace {

namespace cli = adgc::cli;
using cli::parse_flag;

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s --node-bin=PATH [--nodes=N] [--objs=K] [--no-kill]\n"
               "          [--kill-forever | --zombie] [--peer-death-timeout-ms=T]\n"
               "          [--timeout-ms=T] [--state-dir=DIR] [--seed=S] [--verbose]\n"
               "          [--admin-base-port=P] [--obs-dump=DIR]\n",
               argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  adgc::sim::ClusterHarnessOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--help", &v) || std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else if (parse_flag(argv[i], "--node-bin", &v)) {
      opts.node_bin = v;
    } else if (parse_flag(argv[i], "--nodes", &v)) {
      if (!cli::parse_number(v, &opts.nodes)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--objs", &v)) {
      if (!cli::parse_number(v, &opts.objs_per_node)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--no-kill", &v)) {
      opts.kill_restart = false;
    } else if (parse_flag(argv[i], "--kill-forever", &v)) {
      opts.kill_forever = true;
    } else if (parse_flag(argv[i], "--zombie", &v)) {
      opts.zombie = true;
    } else if (parse_flag(argv[i], "--peer-death-timeout-ms", &v)) {
      if (!cli::parse_number(v, &opts.peer_death_timeout_ms, 0, cli::kMaxMs)) {
        usage(argv[0], 2);
      }
    } else if (parse_flag(argv[i], "--timeout-ms", &v)) {
      if (!cli::parse_number(v, &opts.timeout_ms, 0, cli::kMaxMs)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--state-dir", &v)) {
      opts.state_dir = v;
    } else if (parse_flag(argv[i], "--seed", &v)) {
      if (!cli::parse_number(v, &opts.seed)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--admin-base-port", &v)) {
      if (!cli::parse_number(v, &opts.admin_base_port)) usage(argv[0], 2);
    } else if (parse_flag(argv[i], "--obs-dump", &v)) {
      opts.obs_dump_dir = v;
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      opts.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0], 2);
    }
  }
  if (opts.node_bin.empty()) usage(argv[0], 2);
  if ((opts.kill_forever || opts.zombie) && opts.peer_death_timeout_ms == 0) {
    // Comfortably above the nodes' collector/status periods, far below the
    // harness timeout.
    opts.peer_death_timeout_ms = 2'500;
  }

  if (opts.state_dir.empty()) {
    // Unique scratch dir per run so parallel ctest invocations never share
    // incarnation files or snapshots.
    std::random_device rd;
    opts.state_dir = (std::filesystem::temp_directory_path() /
                      ("adgc_cluster_" + std::to_string(rd()) + "_" +
                       std::to_string(::getpid())))
                         .string();
  }

  // Honor the soak multiplier the CI nightly uses to widen the cluster.
  if (const char* soak = std::getenv("ADGC_SOAK_MULTIPLIER")) {
    const unsigned long mult = std::strtoul(soak, nullptr, 10);
    if (mult > 1) {
      opts.nodes *= mult;
      opts.timeout_ms *= mult;
    }
  }

  std::printf("cluster_harness: nodes=%zu objs=%zu kill_restart=%d kill_forever=%d "
              "zombie=%d peer_death_timeout_ms=%llu state_dir=%s\n",
              opts.nodes, opts.objs_per_node, opts.kill_restart ? 1 : 0,
              opts.kill_forever ? 1 : 0, opts.zombie ? 1 : 0,
              static_cast<unsigned long long>(opts.peer_death_timeout_ms),
              opts.state_dir.c_str());
  std::fflush(stdout);

  const adgc::sim::ClusterResult res = adgc::sim::run_cluster(opts);
  std::error_code ec;
  std::filesystem::remove_all(opts.state_dir, ec);

  if (!res.ok) {
    std::fprintf(stderr, "cluster_harness: FAIL: %s\n", res.failure.c_str());
    return 1;
  }
  std::printf("cluster_harness: OK elapsed_ms=%llu victim_recovered=%d "
              "victim_evicted=%d zombie_nacked=%d metrics_scraped=%d\n",
              static_cast<unsigned long long>(res.elapsed_ms),
              res.victim_recovered ? 1 : 0, res.victim_evicted ? 1 : 0,
              res.zombie_nacked ? 1 : 0, res.metrics_scraped ? 1 : 0);
  return 0;
}
