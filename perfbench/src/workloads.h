// The three benchmark workloads. Each builds its system from the seed, runs
// the measured window(s), drains, checks correctness and fills a RunResult.
// Sizes and the reason each workload exists are stated beside its code and
// in BENCHMARK.json.
#pragma once

#include "perfbench/src/common.h"
#include "src/net/frame.h"
#include "src/net/message.h"

namespace perfbench {

/// Two NodeRuntimes over loopback TCP; paced synchronous RMIs that export
/// fresh objects, against a 20k-reference standing table.
RunResult run_rmi_churn(const Options& opts);

/// Three NodeRuntimes over loopback TCP with persistent snapshots; an open
/// loop planting 3-node garbage rings into quiet 20k-object heaps.
RunResult run_cycle_reclaim(const Options& opts);

/// The deterministic simulator, six processes: a churning random mutator,
/// planted rings (some raced by an RMI) and Fig. 4 mutually-linked cycles.
RunResult run_mixed_sim(const Options& opts);

/// The end-to-end numbers of one measured window, as every workload
/// defines them (see BENCHMARK.json for the per-workload meaning).
struct E2e {
  double rmi_throughput_cps = 0;
  double cpu_us_per_op = 0, ctrl_msgs_per_op = 0, ctrl_bytes_per_op = 0;
  double reclaim_p50_ms = 0, reclaim_tail_ms = 0;
};
/// Bytes one message costs on a TCP link (frame header included).
inline double wire_bytes(const adgc::MessagePayload& m) {
  return static_cast<double>(adgc::encode_message(m).size() + adgc::kFrameHeaderSize);
}

/// Fills `out` with every end-to-end metric of BENCHMARK.json.
void fill_e2e(const E2e& in, double setup_s, MetricMap& out);

/// Cuts a window into slices of about kSliceS: rates and per-operation costs
/// are reported as the median over slices, so one noisy second on a shared
/// machine moves them little.
class Slicer {
 public:
  static constexpr double kSliceS = 1.0;

  /// `inv_bytes`/`rep_bytes`: wire size of one invocation / reply, which
  /// control traffic excludes.
  Slicer(double inv_bytes, double rep_bytes) : inv_bytes_(inv_bytes), rep_bytes_(rep_bytes) {}

  /// Records a boundary: metric totals, operations and completed RMIs so far.
  void mark(const adgc::Metrics& totals, double ops, double rmis);
  /// True once the current slice is kSliceS old.
  bool due() const;
  /// Sets throughput, CPU and control traffic per operation in `e`.
  void fill(E2e& e) const;

 private:
  struct Point {
    double t = 0, cpu = 0, ops = 0, rmis = 0;
    double msgs = 0, bytes = 0, inv = 0, rep = 0;
  };
  double inv_bytes_, rep_bytes_;
  std::vector<Point> pts_;
};

}  // namespace perfbench
