#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void set_fine_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

bool pin_current_thread(int core) {
  if (core < 0 || core >= sysconf(_SC_NPROCESSORS_ONLN) || core >= CPU_SETSIZE) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(core, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

void fine_sleep_us(double us) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::mean() const { return v_.empty() ? 0 : sum() / static_cast<double>(v_.size()); }

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double hist_delta_quantile(const adgc::Histogram& end, const adgc::Histogram& start, double q) {
  using adgc::Histogram;
  std::uint64_t b[Histogram::kBuckets];
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    b[i] = end.bucket(i) - start.bucket(i);
    n += b[i];
  }
  if (n == 0) return 0;
  // Fractional rank: interpolates inside the landing bucket, so small shifts
  // in the distribution show as small shifts in the reported value.
  const double rank = std::max(1.0, std::clamp(q, 0.0, 1.0) * static_cast<double>(n));
  double seen = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (b[i] == 0) continue;
    if (seen + static_cast<double>(b[i]) < rank) {
      seen += static_cast<double>(b[i]);
      continue;
    }
    const double lo = static_cast<double>(Histogram::bucket_lo(i));
    if (i + 1 >= Histogram::kBuckets) return lo;
    const double width = static_cast<double>(Histogram::bucket_le(i)) - lo;
    return lo + width * (rank - seen) / static_cast<double>(b[i]);
  }
  return static_cast<double>(Histogram::bucket_lo(Histogram::kBuckets - 1));
}

std::uint64_t hist_delta_count(const adgc::Histogram& end, const adgc::Histogram& start) {
  return end.count() - start.count();
}

double hist_delta_sum(const adgc::Histogram& end, const adgc::Histogram& start) {
  return static_cast<double>(end.sum() - start.sum());
}

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t parent,
                             const std::string& cat) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= max_spans_) return 0;
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_us = (now_s() - t0_) * 1e6;
  s.id = spans_.size() + 1;
  s.parent = parent;
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& s = spans_[it->second];
  s.dur_us = (now_s() - t0_) * 1e6 - s.start_us;
  open_.erase(it);
}

void SpanLog::complete(const std::string& name, double start_s, double end_s,
                       std::uint64_t parent, const std::string& cat) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= max_spans_) return;
  Span s;
  s.name = name;
  s.cat = cat;
  s.start_us = (start_s - t0_) * 1e6;
  s.dur_us = (end_s - start_s) * 1e6;
  s.id = spans_.size() + 1;
  s.parent = parent;
  spans_.push_back(std::move(s));
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench generator\"}}";
  char buf[128];
  for (const Span& s : spans_) {
    if (s.dur_us < 0) continue;  // never closed
    // Workload spans (RMIs, rings) overlap each other: give them their own
    // track so the layer calls nest cleanly on track 0.
    const int tid = s.cat == "layer" || s.cat == "bench" ? 0 : 1;
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start_us, s.dur_us);
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << buf
        << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
