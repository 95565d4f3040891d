// Shared command-line flag machinery for the adgc_* tools.
//
// Each tool declares one FlagSpec table; both its `usage:` synopsis and the
// per-flag help text are generated from that table, so the two can never
// drift apart (and the --name=value parsing convention is identical across
// adgc_sim, adgc_node and adgc_mc).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace adgc::cli {

struct FlagSpec {
  const char* name;  // "--steps"
  const char* arg;   // metavariable ("N"); nullptr for boolean flags
  const char* help;  // help text; '\n' breaks continuation lines
};

/// Parses "--name" / "--name=value". Returns true when `arg` is this flag,
/// leaving the value (or "" for the bare form) in *value.
inline bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = "";
    return true;
  }
  if (arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Parses a whole non-negative decimal number (integral, or floating point
/// for floating-point T) into *out. Rejects empty input, a sign or any other
/// non-digit lead, trailing garbage and values outside [lo, hi]; *out is
/// left untouched then. Every numeric flag goes through this, so a typo is a
/// usage error instead of a silent zero or a wrapped negative.
template <typename T>
bool parse_number(const std::string& s, T* out, std::type_identity_t<T> lo = T{},
                  std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Upper bound for millisecond flags: keeps their value in microseconds,
/// and deadlines computed from them, within 64 bits.
inline constexpr std::uint64_t kMaxMs = std::numeric_limits<std::uint64_t>::max() / 1000;

/// One "[--flag=ARG]" token for the synopsis.
inline std::string synopsis_token(const FlagSpec& f) {
  std::string tok = "[";
  tok += f.name;
  if (f.arg) {
    tok += '=';
    tok += f.arg;
  }
  tok += ']';
  return tok;
}

/// Prints "usage: <argv0> <head> [--a=X] [--b] ..." wrapped at ~78 columns,
/// continuation lines aligned under the first token. `head` (may be "")
/// carries required positional/mode syntax that is not table-driven.
inline void print_usage_line(std::FILE* out, const char* argv0, const char* head,
                             const FlagSpec* flags, std::size_t n,
                             const char* lead = "usage: ") {
  std::string line = lead;
  line += argv0;
  const std::size_t indent = line.size() + 1;
  if (head && *head) {
    line += ' ';
    line += head;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tok = synopsis_token(flags[i]);
    if (line.size() + 1 + tok.size() > 78) {
      std::fprintf(out, "%s\n", line.c_str());
      line.assign(indent, ' ');
      line += tok;
    } else {
      line += ' ';
      line += tok;
    }
  }
  std::fprintf(out, "%s\n", line.c_str());
}

/// Prints the two-column per-flag help generated from the table.
inline void print_flag_help(std::FILE* out, const FlagSpec* flags, std::size_t n) {
  std::size_t width = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t w = std::strlen(flags[i].name);
    if (flags[i].arg) w += 1 + std::strlen(flags[i].arg);
    if (w > width) width = w;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string left = flags[i].name;
    if (flags[i].arg) {
      left += '=';
      left += flags[i].arg;
    }
    std::fprintf(out, "  %-*s ", static_cast<int>(width), left.c_str());
    const char* help = flags[i].help;
    bool first = true;
    while (*help) {
      const char* nl = std::strchr(help, '\n');
      const std::size_t len = nl ? static_cast<std::size_t>(nl - help)
                                 : std::strlen(help);
      if (!first) std::fprintf(out, "  %-*s ", static_cast<int>(width), "");
      std::fwrite(help, 1, len, out);
      std::fputc('\n', out);
      first = false;
      help += len + (nl ? 1 : 0);
    }
    if (first) std::fputc('\n', out);
  }
}

}  // namespace adgc::cli
