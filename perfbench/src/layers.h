// Per-layer measurement from outside the program.
//
// Two sources, both public:
//  * timed calls into each module's public functions (lgc::run,
//    build_all_new_set_stubs, apply_new_set_stubs, capture_snapshot,
//    BinarySerializer::serialize, SccSummarizer::summarize, the message and
//    frame codecs, Detector::start_detection/on_cdm, match), made on the
//    benchmark's own thread against copies of state captured from each node;
//  * the Metrics counters and histograms production already exports, taken
//    as deltas over the measured window.
//
// The same numbers feed the attribution row: per operation, the layer busy
// time the counters imply, the process CPU, and the remainder nothing
// explains.
#pragma once

#include <memory>
#include <vector>

#include "perfbench/src/common.h"
#include "src/common/config.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/net/message.h"
#include "src/rt/heap.h"
#include "src/rt/process.h"
#include "src/snapshot/snapshot.h"

namespace perfbench {

/// Copy of one process's collector-relevant state. Captured on the process's
/// own execution context (inside a post_sync, or directly in the simulator).
struct NodeState {
  adgc::ProcessId pid = adgc::kNoProcess;
  adgc::SimTime now = 0;
  adgc::Heap heap;
  adgc::StubTable stubs;
  adgc::ScionTable scions;
  std::shared_ptr<const adgc::SummarizedGraph> summary;
  adgc::ProcessConfig cfg;
};

NodeState capture_state(adgc::Process& p);

/// Times layer calls on captured copies; accumulates one value per call.
class LayerProbe {
 public:
  explicit LayerProbe(SpanLog& spans) : spans_(spans) {}

  /// One sample round over the captured states of every node. Consumes
  /// `nodes` (lgc::run sweeps the copies last).
  void sample(std::vector<NodeState> nodes, std::uint64_t parent);
  /// Codec and frame cost of the workload's representative invocation and
  /// its reply.
  void sample_invoke(const adgc::InvokeMsg& inv, std::uint64_t parent);

  /// CPU the calling thread spent inside sample()/sample_invoke(): it is the
  /// probe's own cost, so attribution subtracts it from the process CPU.
  double probe_cpu_s() const { return probe_cpu_s_; }
  std::size_t rounds() const { return rounds_; }

  Samples lgc_run_us;
  Samples nss_build_us;     // one build_all_new_set_stubs per node (= one LGC round)
  Samples nss_entries;      // entries per built message
  Samples nss_encode_us, nss_decode_us, nss_apply_us;
  Samples nss_bytes;        // encoded bytes per message
  Samples serialize_us, summarize_us, snapshot_bytes;
  Samples derive_us, on_cdm_us, match_us, cdm_encode_us, cdm_decode_us;
  Samples invoke_encode_us, invoke_decode_us, reply_encode_us, reply_decode_us;
  Samples frame_encode_us, frame_decode_us;
  double frame_bytes = 0, frame_encode_total_us = 0, frame_decode_total_us = 0;
  Samples staleness_ms;     // now - current summary's taken_at, per node per round
  Samples actor_wait_us;    // queue wait of an empty posted closure (TCP workloads)

 private:
  void time_frame(const std::vector<std::byte>& payload, std::uint64_t parent);

  SpanLog& spans_;
  double probe_cpu_s_ = 0;
  std::size_t rounds_ = 0;
};

/// Everything besides the probe that the per-layer metrics need, over the
/// traced window.
struct LayerContext {
  adgc::Metrics start, end;  // totals over every node, window start / end
  double wall_s = 0;
  double cpu_s = 0;
  double ops = 0;            // the workload's unit operations in the window
  bool tcp = true;           // frames and actor threads exist
  double heap_objects = 0, stubs = 0, scions = 0;  // end of window, all nodes
  double steady_drift = 0;
  Samples gen_late_ms;
  double rmi_samples = 0, reclaim_samples = 0;
};

/// Fills every per-layer metric (including the attribution row) into `out`.
void fill_layer_metrics(const LayerProbe& p, const LayerContext& c, MetricMap& out);

/// Names of the end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string>& e2e_metric_names();

/// Adds bench.trace_overhead_pct.<metric> for every end-to-end metric the
/// traced and untraced windows both measured (setup_s is shared, so skipped).
void fill_trace_overhead(const MetricMap& untraced, const MetricMap& traced, MetricMap& out);

/// Steady-state guard: relative drift of a table size across the window,
/// with `slack` entries of allowed noise.
double drift(double start, double end, double slack);

}  // namespace perfbench
