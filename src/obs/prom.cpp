#include "src/obs/prom.h"

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>

namespace adgc::obs {

namespace {

/// Counters that are semantically gauges (sampled table sizes, set each
/// LGC): exported as `gauge` and without the `_total` suffix.
const std::set<std::string_view>& gauge_names() {
  static const std::set<std::string_view> kGauges = {"peer_health_slots"};
  return kGauges;
}

}  // namespace

std::string render_prometheus(const Metrics& m) {
  std::ostringstream os;
  m.for_each_counter([&os](const char* name, std::uint64_t v) {
    if (gauge_names().contains(name)) {
      os << "# TYPE adgc_" << name << " gauge\n";
      os << "adgc_" << name << " " << v << "\n";
    } else {
      os << "# TYPE adgc_" << name << "_total counter\n";
      os << "adgc_" << name << "_total " << v << "\n";
    }
  });
  m.for_each_histogram([&os](const char* name, const Histogram& h) {
    os << "# TYPE adgc_" << name << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      cum += h.bucket(i);
      if (i + 1 == Histogram::kBuckets) {
        os << "adgc_" << name << "_bucket{le=\"+Inf\"} " << cum << "\n";
      } else {
        // Skip trailing empty buckets (everything recorded already sits at
        // or below this bound) to keep the exposition compact; le="0" and
        // +Inf are always emitted so the series stays well-formed.
        if (h.bucket(i) == 0 && i != 0 && cum == h.count()) continue;
        os << "adgc_" << name << "_bucket{le=\"" << Histogram::bucket_le(i)
           << "\"} " << cum << "\n";
      }
    }
    os << "adgc_" << name << "_sum " << h.sum() << "\n";
    os << "adgc_" << name << "_count " << h.count() << "\n";
  });
  return os.str();
}

bool parse_prometheus(std::string_view text, std::map<std::string, double>* out,
                      std::string* err) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& why) {
    if (err) *err = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };
  while (pos < text.size()) {
    ++line_no;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) != 0 && line.rfind("# HELP ", 0) != 0) {
        return fail("malformed comment");
      }
      continue;
    }
    // name{labels} value
    std::size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) || line[i] == '_')) {
      ++i;
    }
    if (i == 0) return fail("sample line does not start with a metric name");
    std::string name(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) return fail("unterminated label set");
      name += std::string(line.substr(i, close - i + 1));
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return fail("missing value separator");
    ++i;
    const std::string value_str(line.substr(i));
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || (end && *end != '\0')) {
      return fail("unparseable sample value '" + value_str + "'");
    }
    if (out) (*out)[name] = value;
  }
  return true;
}

}  // namespace adgc::obs
