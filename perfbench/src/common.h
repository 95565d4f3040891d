// Shared plumbing of the perfbench workloads: clocks, sample statistics,
// histogram deltas, the metric/result record and the in-memory span log
// that is written out as Chrome trace JSON at the end of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock seconds since an arbitrary epoch.
double now_s();
/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s();
/// CPU time of the calling thread in seconds.
double thread_cpu_s();
/// Sleeps with fine timer slack (the generator polls at tens of µs).
void fine_sleep_us(double us);
/// Lowers the calling thread's timer slack so short sleeps stay short.
void set_fine_timer_slack();
/// Restricts the calling thread (and threads it creates later) to CPU
/// `core`. Returns false when the machine has no such CPU.
bool pin_current_thread(int core);

/// A bag of samples with order statistics.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// Linear-interpolated quantile, q in [0,1]; 0 for an empty bag.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// Quantile of the samples a histogram gained between two copies of it
/// (same interpolation as adgc::Histogram::quantile).
double hist_delta_quantile(const adgc::Histogram& end, const adgc::Histogram& start, double q);
std::uint64_t hist_delta_count(const adgc::Histogram& end, const adgc::Histogram& start);
double hist_delta_sum(const adgc::Histogram& end, const adgc::Histogram& start);

/// Counter delta between two Metrics copies.
inline double delta(const adgc::Counter& end, const adgc::Counter& start) {
  return static_cast<double>(end.get() - start.get());
}

/// x / y, or 0 when y is 0.
inline double ratio(double x, double y) { return y != 0 ? x / y : 0.0; }

struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// Options every workload receives from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // trace files and per-run state live under here
};

/// What a workload run hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // failed correctness checks, by name
  MetricMap e2e;     // untraced window
  MetricMap layers;  // traced window (empty unless --trace 1)
  std::vector<std::string> notes;  // human-readable lines printed before the JSON

  void violation(const std::string& what, std::uint64_t count = 1) {
    violations.push_back(what);
    failed += count;
  }
};

/// Spans recorded by the benchmark's own threads, around its calls into each
/// layer. Written out as Chrome trace-event JSON (Perfetto opens it).
/// Thread-safe: the generator and the probe worker both record.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(now_s()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). `parent` is the span
  /// that caused it (0 = none).
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0,
                      const std::string& cat = "bench");
  void end(std::uint64_t id);
  /// An already-measured interval (e.g. one RMI from issue to completion).
  void complete(const std::string& name, double start_s, double end_s,
                std::uint64_t parent = 0, const std::string& cat = "bench");

  /// Writes {"traceEvents": [...]} to `path`. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string cat;
    double start_us = 0;
    double dur_us = -1;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
  };
  bool enabled_;
  double t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;
  std::size_t max_spans_ = 200'000;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, std::uint64_t parent = 0,
        const std::string& cat = "layer")
      : log_(log), id_(log.begin(name, parent, cat)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Mean wall µs of one call of `fn`, repeating it until at least
/// `min_total_us` elapsed (short calls need many repetitions to time).
template <class F>
double time_us(F&& fn, double min_total_us = 300) {
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  } while (elapsed < min_total_us && reps < 1'000'000);
  return elapsed / reps;
}

/// Wall µs of exactly one call of `fn`.
template <class F>
double time_once_us(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace perfbench
