#include "src/common/metrics.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

namespace adgc {

namespace {

// Name tables driving merge/report/reset, generated from the declaration
// lists in metrics.h.
struct Field {
  const char* name;
  Counter Metrics::* member;
};

struct HistField {
  const char* name;
  Histogram Metrics::* member;
};

#define ADGC_METRICS_ENTRY(name) {#name, &Metrics::name},

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = {ADGC_METRICS_COUNTERS(ADGC_METRICS_ENTRY)};
  return kFields;
}

/// The counter table in sorted name order — report() and the Prometheus
/// exposition must be deterministic regardless of declaration order.
const std::vector<Field>& sorted_fields() {
  static const std::vector<Field> kSorted = [] {
    std::vector<Field> v = fields();
    std::sort(v.begin(), v.end(), [](const Field& a, const Field& b) {
      return std::strcmp(a.name, b.name) < 0;
    });
    return v;
  }();
  return kSorted;
}

const std::vector<HistField>& hist_fields() {
  static const std::vector<HistField> kFields = [] {
    std::vector<HistField> v = {ADGC_METRICS_HISTOGRAMS(ADGC_METRICS_ENTRY)};
    std::sort(v.begin(), v.end(), [](const HistField& a, const HistField& b) {
      return std::strcmp(a.name, b.name) < 0;
    });
    return v;
  }();
  return kFields;
}

#undef ADGC_METRICS_ENTRY

}  // namespace

void Metrics::merge(const Metrics& other) {
  for (const auto& f : fields()) {
    (this->*f.member).add((other.*f.member).get());
  }
  for (const auto& f : hist_fields()) {
    (this->*f.member).merge(other.*f.member);
  }
}

std::string Metrics::report(const std::string& prefix) const {
  std::ostringstream os;
  for (const auto& f : sorted_fields()) {
    const std::uint64_t v = (this->*f.member).get();
    if (v != 0) os << prefix << f.name << " = " << v << "\n";
  }
  for (const auto& f : hist_fields()) {
    const Histogram& h = this->*f.member;
    const std::uint64_t n = h.count();
    if (n == 0) continue;
    os << prefix << f.name << ": count=" << n << " p50~" << h.quantile(0.5)
       << " p99~" << h.quantile(0.99) << " mean=" << h.sum() / n << "\n";
  }
  return os.str();
}

void Metrics::reset() {
  for (const auto& f : fields()) (this->*f.member).reset();
  for (const auto& f : hist_fields()) (this->*f.member).reset();
}

void Metrics::for_each_counter(
    const std::function<void(const char*, std::uint64_t)>& fn) const {
  for (const auto& f : sorted_fields()) fn(f.name, (this->*f.member).get());
}

void Metrics::for_each_histogram(
    const std::function<void(const char*, const Histogram&)>& fn) const {
  for (const auto& f : hist_fields()) fn(f.name, this->*f.member);
}

}  // namespace adgc
