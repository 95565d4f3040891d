// Small sample-statistics accumulator for the benches: count/min/max/
// mean/stddev and exact percentiles (keeps all samples).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace adgc {

class SampleStats {
 public:
  void add(double v);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  double percentile(double p) const;

  /// "n=12 mean=4.2 p50=4.0 p95=7.9 max=8.8" (units are the caller's).
  std::string summary() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0;
  double sum_sq_ = 0;
};

}  // namespace adgc
