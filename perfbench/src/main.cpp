// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload <rmi_churn|cycle_reclaim|mixed_sim> --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Prints human-readable notes, then, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (and the
// traced spans go to DIR as Chrome trace JSON). Exits non-zero without a
// result line when the run could not be carried out.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {

void fill_e2e(const E2e& in, double setup_s, MetricMap& out) {
  out["setup_s"] = {setup_s, "s"};
  out["rmi_throughput_cps"] = {in.rmi_throughput_cps, "1/s"};
  out["cpu_us_per_op"] = {in.cpu_us_per_op, "us"};
  out["ctrl_msgs_per_op"] = {in.ctrl_msgs_per_op, "count"};
  out["ctrl_bytes_per_op"] = {in.ctrl_bytes_per_op, "B"};
  out["reclaim_p50_ms"] = {in.reclaim_p50_ms, "ms"};
  out["reclaim_tail_ms"] = {in.reclaim_tail_ms, "ms"};
}

void Slicer::mark(const adgc::Metrics& m, double ops, double rmis) {
  Point p;
  p.t = now_s();
  p.cpu = process_cpu_s();
  p.ops = ops;
  p.rmis = rmis;
  p.msgs = static_cast<double>(m.messages_sent.get());
  p.bytes = static_cast<double>(m.bytes_sent.get());
  p.inv = static_cast<double>(m.invocations_sent.get());
  p.rep = static_cast<double>(m.replies_sent.get());
  pts_.push_back(p);
}

bool Slicer::due() const { return !pts_.empty() && now_s() - pts_.back().t >= kSliceS; }

void Slicer::fill(E2e& e) const {
  Samples tput, cpu, msgs, bytes;
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    const Point& a = pts_[i - 1];
    const Point& b = pts_[i];
    const double wall = b.t - a.t;
    // A short tail slice would weigh as much as a full one; skip it.
    if (wall < kSliceS / 2) continue;
    tput.add((b.rmis - a.rmis) / wall);
    const double ops = b.ops - a.ops;
    if (ops <= 0) continue;
    const double inv = b.inv - a.inv, rep = b.rep - a.rep;
    cpu.add((b.cpu - a.cpu) * 1e6 / ops);
    msgs.add((b.msgs - a.msgs - inv - rep) / ops);
    bytes.add((b.bytes - a.bytes - inv * inv_bytes_ - rep * rep_bytes_) / ops);
  }
  e.rmi_throughput_cps = tput.median();
  e.cpu_us_per_op = cpu.median();
  e.ctrl_msgs_per_op = msgs.median();
  e.ctrl_bytes_per_op = bytes.median();
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const RunResult& r, const MetricMap& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.violations.empty() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload <rmi_churn|cycle_reclaim|mixed_sim> --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") {
        opts.workload = v;
      } else if (k == "--seed") {
        opts.seed = std::stoull(v);
      } else if (k == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (k == "--trace") {
        opts.trace = v == "1";
      } else if (k == "--out-dir") {
        opts.out_dir = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || opts.out_dir.empty() || opts.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(opts.out_dir);

  RunResult r;
  try {
    if (opts.workload == "rmi_churn") {
      r = run_rmi_churn(opts);
    } else if (opts.workload == "cycle_reclaim") {
      r = run_cycle_reclaim(opts);
    } else if (opts.workload == "mixed_sim") {
      r = run_mixed_sim(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& n : r.notes) std::cout << n << "\n";
  for (const std::string& v : r.violations) std::cout << "VIOLATION: " << v << "\n";
  const MetricMap& shown = opts.trace ? r.layers : r.e2e;
  for (const auto& [name, m] : shown) {
    std::printf("%-44s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << result_json(r, shown) << std::endl;
  return 0;
}
