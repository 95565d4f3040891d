// Attaches the §5 comparison collectors to every process of a simulated
// runtime, behind Process's reserved-tag handler; Process knows neither.
#pragma once

#include <memory>
#include <vector>

#include "src/baseline/backtrace_detector.h"
#include "src/baseline/global_trace.h"
#include "src/rt/runtime.h"

namespace adgc {

/// Declare it after the Runtime and keep it alive while `rt` runs: the
/// handlers and the global trace's poll timer point into it. A process
/// restarted after the attach comes back without the collectors.
class Baselines {
 public:
  explicit Baselines(Runtime& rt);
  Baselines(const Baselines&) = delete;
  Baselines& operator=(const Baselines&) = delete;

  BacktraceDetector& backtracer(ProcessId pid) { return procs_.at(pid)->backtracer; }
  GlobalTraceCollector& gtrace(ProcessId pid) { return procs_.at(pid)->gtrace; }
  const BaselineCounters& counters() const { return counters_; }

 private:
  struct Attached {
    Attached(Process& proc, BaselineCounters& counters)
        : backtracer(proc, counters), gtrace(proc, counters) {}
    void deliver(ProcessId src, std::span<const std::byte> bytes);
    BacktraceDetector backtracer;
    GlobalTraceCollector gtrace;
  };

  BaselineCounters counters_;
  std::vector<std::unique_ptr<Attached>> procs_;
};

}  // namespace adgc
