#include "bench/sample_stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace adgc {

void SampleStats::add(double v) {
  samples_.push_back(v);
  sum_ += v;
  sum_sq_ += v * v;
  sorted_valid_ = false;
}

void SampleStats::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleStats::min() const {
  ensure_sorted();
  if (sorted_.empty()) throw std::logic_error("stats: empty");
  return sorted_.front();
}

double SampleStats::max() const {
  ensure_sorted();
  if (sorted_.empty()) throw std::logic_error("stats: empty");
  return sorted_.back();
}

double SampleStats::mean() const {
  if (samples_.empty()) throw std::logic_error("stats: empty");
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::stddev() const {
  const auto n = static_cast<double>(samples_.size());
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  const double var = (sum_sq_ - n * m * m) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double SampleStats::percentile(double p) const {
  ensure_sorted();
  if (sorted_.empty()) throw std::logic_error("stats: empty");
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted_.size())));
  return sorted_[rank == 0 ? 0 : rank - 1];
}

std::string SampleStats::summary() const {
  if (samples_.empty()) return "n=0";
  std::ostringstream os;
  os.precision(3);
  os << "n=" << count() << " mean=" << mean() << " p50=" << percentile(50)
     << " p95=" << percentile(95) << " max=" << max();
  return os.str();
}

}  // namespace adgc
