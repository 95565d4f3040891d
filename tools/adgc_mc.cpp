// adgc_mc — systematic schedule exploration (model checking) driver.
//
// Explores bounded schedules of a scenario with every nondeterministic
// choice (delivery order, message loss, collector timing, crash points)
// under Explorer control, checking the safety oracle after every decision
// and the liveness/completeness oracles after fault-free schedules settle.
//
// Exit status: 0 = explored clean (or replay matched --expect),
//              1 = violation found (trace printed, saved with --trace-out),
//              2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>

#include "src/common/log.h"
#include "src/mc/explorer.h"
#include "src/mc/shrink.h"
#include "tools/cli_flags.h"

using namespace adgc;

namespace {

constexpr cli::FlagSpec kFlags[] = {
    {"--strategy", "S", "search strategy: dfs (exhaustive bounded depth-first),\n"
                        "delay (delay-bounded dfs; bound = --preemptions), pct\n"
                        "(randomized priorities with --preemptions change points),\n"
                        "replay (re-execute --trace-in) (default dfs)"},
    {"--scenario", "X", "fig1 | fig3 | fig4 | fig5 | race | evict (default fig3)"},
    {"--steps", "N", "max decisions per schedule (default 60)"},
    {"--schedules", "N", "max schedules to explore (default 10000)"},
    {"--preemptions", "N", "delay bound (delay) / priority change points (pct)\n"
                           "(default 3)"},
    {"--seed", "S", "determinism anchor: runtime + pct priorities (default 1)"},
    {"--loss-budget", "N", "message-drop decisions offered per schedule (default 0)"},
    {"--crash-budget", "N", "crash decisions offered per schedule (default 0)"},
    {"--collector-budget", "N", "lgc/snapshot/scan runs per process per schedule\n"
                                "(default 3)"},
    {"--trace-out", "FILE", "write the (shrunk) violating trace here"},
    {"--trace-in", "FILE", "trace to replay (with --strategy=replay)"},
    {"--record", "N", "record mode: explore N schedules and write the N-th\n"
                      "one's trace to --trace-out whether it violates or not\n"
                      "(corpus check-in; exit 1 iff it violates)"},
    {"--expect", "E", "replay expectation: clean | violation (default clean);\n"
                      "exit 0 iff the replay matches"},
    {"--shrink", nullptr, "delta-debug a found violation to a minimal trace"},
    {"--no-liveness", nullptr, "skip the settle + completeness phase (safety only)"},
    {"--unsafe-no-ic", nullptr, "planted bug: run the DCDA with invocation counters\n"
                                "ignored (self-test; violations are expected)"},
    {"--pipeline-latency-us", "T",
     "turn the async snapshot pipeline ON for explored schedules:\n"
     "kSnapshot decisions request a snapshot whose summary\n"
     "publishes via a timer T sim-us later — a pending event the\n"
     "explorer orders like any other, adding the detection-vs-\n"
     "publish race as a choice point (default 0 = synchronous)"},
    {"--time-budget-ms", "T", "wall-clock bound for the exploration (default none)"},
    {"--log", "L", "runtime log level while exploring/replaying:\n"
                   "trace | debug | info | warn (default off)"},
    {"--verbose", nullptr, "print per-violation trace dumps"},
};
constexpr std::size_t kNumFlags = sizeof(kFlags) / sizeof(kFlags[0]);

struct Options {
  std::string strategy = "dfs";
  mc::ExplorerOptions ex;
  std::uint32_t preemptions = 3;
  std::string trace_out;
  std::string trace_in;
  std::uint64_t record = 0;
  bool expect_violation = false;
  bool shrink = false;
  bool verbose = false;
};

void print_usage(std::FILE* out, const char* argv0) {
  cli::print_usage_line(out, argv0, "", kFlags, kNumFlags);
}

[[noreturn]] void usage(const char* argv0, const char* why = nullptr) {
  if (why) std::fprintf(stderr, "%s\n", why);
  print_usage(stderr, argv0);
  std::fprintf(stderr, "see --help for details\n");
  std::exit(2);
}

[[noreturn]] void help(const char* argv0) {
  print_usage(stdout, argv0);
  std::printf(
      "\n"
      "Systematic schedule exploration over the deterministic runtime: the\n"
      "Explorer controls every choice point (message delivery order, loss,\n"
      "LGC/snapshot/scan timing, crash/restart points) and checks the safety\n"
      "oracle after every decision; fault-free schedules also settle and run\n"
      "the liveness/completeness oracles. Violations are emitted as compact\n"
      "binary decision traces that replay deterministically (docs/\n"
      "MODEL_CHECKING.md).\n"
      "\n");
  cli::print_flag_help(stdout, kFlags, kNumFlags);
  std::printf(
      "\nexamples:\n"
      "  %s --strategy=dfs --scenario=fig3 --steps=60 --schedules=10000\n"
      "  %s --strategy=pct --scenario=fig4 --preemptions=3 --seed=7\n"
      "  %s --strategy=replay --trace-in=bug.trace --expect=violation\n",
      argv0, argv0, argv0);
  std::exit(0);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::parse_flag(argv[i], "--help", &v) || std::strcmp(argv[i], "-h") == 0) {
      help(argv[0]);
    } else if (cli::parse_flag(argv[i], "--strategy", &v)) {
      opt.strategy = v;
    } else if (cli::parse_flag(argv[i], "--scenario", &v)) {
      const auto kind = mc::parse_scenario(v);
      if (!kind) usage(argv[0], "unknown scenario");
      opt.ex.scenario = *kind;
    } else if (cli::parse_flag(argv[i], "--steps", &v)) {
      if (!cli::parse_number(v, &opt.ex.max_steps)) usage(argv[0], "bad --steps");
    } else if (cli::parse_flag(argv[i], "--schedules", &v)) {
      if (!cli::parse_number(v, &opt.ex.max_schedules)) usage(argv[0], "bad --schedules");
    } else if (cli::parse_flag(argv[i], "--preemptions", &v)) {
      if (!cli::parse_number(v, &opt.preemptions)) usage(argv[0], "bad --preemptions");
    } else if (cli::parse_flag(argv[i], "--seed", &v)) {
      if (!cli::parse_number(v, &opt.ex.seed)) usage(argv[0], "bad --seed");
    } else if (cli::parse_flag(argv[i], "--loss-budget", &v)) {
      if (!cli::parse_number(v, &opt.ex.loss_budget)) usage(argv[0], "bad --loss-budget");
    } else if (cli::parse_flag(argv[i], "--crash-budget", &v)) {
      if (!cli::parse_number(v, &opt.ex.crash_budget)) usage(argv[0], "bad --crash-budget");
    } else if (cli::parse_flag(argv[i], "--collector-budget", &v)) {
      if (!cli::parse_number(v, &opt.ex.collector_budget)) {
        usage(argv[0], "bad --collector-budget");
      }
    } else if (cli::parse_flag(argv[i], "--trace-out", &v)) {
      opt.trace_out = v;
    } else if (cli::parse_flag(argv[i], "--trace-in", &v)) {
      opt.trace_in = v;
    } else if (cli::parse_flag(argv[i], "--record", &v)) {
      if (!cli::parse_number(v, &opt.record)) usage(argv[0], "bad --record");
    } else if (cli::parse_flag(argv[i], "--expect", &v)) {
      if (v == "violation") {
        opt.expect_violation = true;
      } else if (v != "clean") {
        usage(argv[0], "--expect must be clean or violation");
      }
    } else if (cli::parse_flag(argv[i], "--shrink", &v)) {
      opt.shrink = true;
    } else if (cli::parse_flag(argv[i], "--no-liveness", &v)) {
      opt.ex.check_liveness = false;
    } else if (cli::parse_flag(argv[i], "--unsafe-no-ic", &v)) {
      opt.ex.unsafe_no_ic = true;
    } else if (cli::parse_flag(argv[i], "--pipeline-latency-us", &v)) {
      if (!cli::parse_number(v, &opt.ex.snapshot_pipeline_latency_us)) {
        usage(argv[0], "bad --pipeline-latency-us");
      }
    } else if (cli::parse_flag(argv[i], "--time-budget-ms", &v)) {
      if (!cli::parse_number(v, &opt.ex.time_budget_ms)) usage(argv[0], "bad --time-budget-ms");
    } else if (cli::parse_flag(argv[i], "--log", &v)) {
      if (v == "trace") {
        Log::set_level(LogLevel::kTrace);
      } else if (v == "debug") {
        Log::set_level(LogLevel::kDebug);
      } else if (v == "info") {
        Log::set_level(LogLevel::kInfo);
      } else if (v == "warn") {
        Log::set_level(LogLevel::kWarn);
      } else {
        usage(argv[0], "--log must be trace, debug, info or warn");
      }
    } else if (cli::parse_flag(argv[i], "--verbose", &v)) {
      opt.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (opt.strategy == "replay" && opt.trace_in.empty()) {
    usage(argv[0], "--strategy=replay requires --trace-in");
  }
  if (opt.strategy != "dfs" && opt.strategy != "delay" && opt.strategy != "pct" &&
      opt.strategy != "replay") {
    usage(argv[0], "unknown strategy");
  }
  return opt;
}

int run_replay(const Options& opt) {
  const auto trace = mc::load_trace(opt.trace_in);
  if (!trace) {
    std::fprintf(stderr, "adgc_mc: cannot load trace '%s'\n", opt.trace_in.c_str());
    return 2;
  }
  std::printf("replaying %s", mc::describe(*trace).c_str());
  const mc::ScheduleOutcome out = mc::replay_trace(*trace);
  if (out.violation) {
    std::printf("replay: VIOLATION: %s\n", out.violation->c_str());
  } else {
    std::printf("replay: clean (%zu decisions applied)\n", out.steps);
  }
  const bool matched = out.violation.has_value() == opt.expect_violation;
  std::printf("replay %s expectation (%s)\n", matched ? "matches" : "DOES NOT match",
              opt.expect_violation ? "violation" : "clean");
  return matched ? 0 : 1;
}

int run_record(const Options& opt, mc::ScheduleStrategy& strategy) {
  mc::Explorer explorer(opt.ex);
  mc::ScheduleOutcome out;
  for (std::uint64_t i = 0; i < opt.record; ++i) out = explorer.run_one(strategy);
  out.trace.note = "recorded " + opt.strategy + " schedule #" + std::to_string(opt.record);
  if (out.violation) {
    std::printf("recorded schedule VIOLATES: %s\n", out.violation->c_str());
  } else {
    std::printf("recorded schedule is clean (%zu decisions)\n", out.steps);
  }
  std::printf("%s", mc::describe(out.trace).c_str());
  if (!opt.trace_out.empty()) {
    if (!mc::save_trace(out.trace, opt.trace_out)) {
      std::fprintf(stderr, "adgc_mc: cannot write %s\n", opt.trace_out.c_str());
      return 2;
    }
    std::printf("trace written to %s\n", opt.trace_out.c_str());
  }
  return out.violation ? 1 : 0;
}

int run_explore(const Options& opt) {
  std::unique_ptr<mc::ScheduleStrategy> strategy;
  if (opt.strategy == "dfs") {
    strategy = std::make_unique<mc::DfsStrategy>();
  } else if (opt.strategy == "delay") {
    strategy = std::make_unique<mc::DfsStrategy>(opt.preemptions);
  } else {
    strategy =
        std::make_unique<mc::PctStrategy>(opt.ex.seed, opt.preemptions, opt.ex.max_steps);
  }
  if (opt.record > 0) return run_record(opt, *strategy);

  mc::Explorer explorer(opt.ex);
  std::printf("adgc_mc: strategy=%s scenario=%s steps=%u schedules=%llu seed=%llu "
              "loss_budget=%u crash_budget=%u pipeline_latency_us=%u%s\n",
              opt.strategy.c_str(), mc::scenario_name(opt.ex.scenario), opt.ex.max_steps,
              static_cast<unsigned long long>(opt.ex.max_schedules),
              static_cast<unsigned long long>(opt.ex.seed), opt.ex.loss_budget,
              opt.ex.crash_budget, opt.ex.snapshot_pipeline_latency_us,
              opt.ex.unsafe_no_ic ? " UNSAFE-NO-IC" : "");

  const auto t0 = std::chrono::steady_clock::now();
  mc::ExploreResult res = explorer.explore(*strategy);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  std::printf("explored %llu schedules / %llu decisions in %lld ms%s%s\n",
              static_cast<unsigned long long>(res.schedules),
              static_cast<unsigned long long>(res.total_decisions),
              static_cast<long long>(ms), res.exhausted ? " (search exhausted)" : "",
              res.hit_time_budget ? " (time budget hit)" : "");
  std::printf("protocol activity: detections=%llu cycles_collected=%llu "
              "ic_aborts=%llu deliveries=%llu evictions=%llu\n",
              static_cast<unsigned long long>(res.detections_started),
              static_cast<unsigned long long>(res.cycles_collected),
              static_cast<unsigned long long>(res.detections_aborted_ic),
              static_cast<unsigned long long>(res.messages_delivered),
              static_cast<unsigned long long>(res.peers_evicted));

  if (!res.failure) {
    std::printf("no violation found.\n");
    return 0;
  }

  mc::Trace trace = res.failure->trace;
  trace.note = "found by " + opt.strategy;
  std::printf("VIOLATION: %s\n", res.failure->violation->c_str());
  if (opt.shrink) {
    mc::ShrinkStats st;
    trace = mc::shrink_trace(
        trace, [](const mc::Trace& t) { return mc::replay_trace(t).violation.has_value(); },
        2000, &st);
    trace.note += ", shrunk " + std::to_string(res.failure->trace.decisions.size()) +
                  " -> " + std::to_string(trace.decisions.size()) + " decisions";
    std::printf("shrunk %zu -> %zu decisions (%zu replays)\n",
                res.failure->trace.decisions.size(), trace.decisions.size(), st.attempts);
  }
  if (opt.verbose || opt.shrink) std::printf("%s", mc::describe(trace).c_str());
  if (!opt.trace_out.empty()) {
    if (mc::save_trace(trace, opt.trace_out)) {
      std::printf("trace written to %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "adgc_mc: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return opt.strategy == "replay" ? run_replay(opt) : run_explore(opt);
}
