// Shared helpers for the benchmark binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/rt/runtime.h"
#include "src/sim/harness.h"

namespace adgc::bench {

/// Wall-clock stopwatch (milliseconds, double).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Machine-readable benchmark results: each benchmark binary accumulates
/// rows and writes one `BENCH_<name>.json` into the working directory, so
/// CI and plotting scripts consume numbers without scraping the human
/// tables. Plain fprintf JSON — no serialization dependency wanted here.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  ~JsonReport() { write(); }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Adds one result row: a series label plus numeric fields.
  void add(const std::string& series,
           std::vector<std::pair<std::string, double>> fields) {
    rows_.push_back({series, std::move(fields)});
  }

  /// Writes BENCH_<name>.json (also called by the destructor; idempotent).
  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {\"series\": \"%s\"", rows_[i].series.c_str());
      for (const auto& [key, value] : rows_[i].fields) {
        std::fprintf(f, ", \"%s\": %.6g", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string series;
    std::vector<std::pair<std::string, double>> fields;
  };

  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace adgc::bench
