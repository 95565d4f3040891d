// What the two §5 comparison collectors share: their messages, the codec and
// the counters the benches and tests read. The messages travel under the
// tags the production protocol reserves (kReservedTags, src/net/message.h);
// only the handler Baselines registers decodes them. They cross nothing but
// the deterministic simulator and no bench reports their bytes, so the
// encoding is the simplest one that round-trips: the tag, then every field.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/net/message.h"

namespace adgc {

/// Back-tracing (Maheshwari-Liskov style) request: "is the object behind
/// scion `subject_ref` reachable, other than through the path already
/// visited?". Synchronous chains of these model the related work's
/// remote-procedure-call recursion.
struct BacktraceRequestMsg {
  static constexpr std::uint8_t kTag = 7;
  std::uint64_t trace_id = 0;
  std::uint64_t req_id = 0;     // allocated by the requester; echoed in reply
  RefId subject_ref = kNoRef;   // stub at the receiver to examine
  std::vector<RefId> visited;   // references already on the back-trace path
  std::uint32_t depth = 0;
  static auto fields(auto& m) {
    return std::tie(m.trace_id, m.req_id, m.subject_ref, m.visited, m.depth);
  }
  friend bool operator==(const BacktraceRequestMsg&, const BacktraceRequestMsg&) = default;
};

struct BacktraceReplyMsg {
  static constexpr std::uint8_t kTag = 8;
  std::uint64_t trace_id = 0;
  std::uint64_t req_id = 0;
  bool reachable = false;  // some local root reaches the subject
  static auto fields(auto& m) { return std::tie(m.trace_id, m.req_id, m.reachable); }
  friend bool operator==(const BacktraceReplyMsg&, const BacktraceReplyMsg&) = default;
};

/// Global trace (Lang/Queinnec/Piquer-style "GC the world"): the coordinator
/// opens an epoch.
struct GtStartMsg {
  static constexpr std::uint8_t kTag = 9;
  std::uint64_t epoch = 0;
  std::uint64_t epoch_start = 0;  // coordinator clock (SimTime)
  static auto fields(auto& m) { return std::tie(m.epoch, m.epoch_start); }
  friend bool operator==(const GtStartMsg&, const GtStartMsg&) = default;
};

/// Mark request: "the object behind scion `ref` is globally reachable".
struct GtMarkMsg {
  static constexpr std::uint8_t kTag = 10;
  std::uint64_t epoch = 0;
  RefId ref = kNoRef;
  static auto fields(auto& m) { return std::tie(m.epoch, m.ref); }
  friend bool operator==(const GtMarkMsg&, const GtMarkMsg&) = default;
};

struct GtPollMsg {
  static constexpr std::uint8_t kTag = 11;
  std::uint64_t epoch = 0;
  std::uint64_t poll_seq = 0;
  static auto fields(auto& m) { return std::tie(m.epoch, m.poll_seq); }
  friend bool operator==(const GtPollMsg&, const GtPollMsg&) = default;
};

struct GtStatusMsg {
  static constexpr std::uint8_t kTag = 12;
  std::uint64_t epoch = 0;
  std::uint64_t poll_seq = 0;
  std::uint64_t marks_sent = 0;
  std::uint64_t marks_processed = 0;
  static auto fields(auto& m) {
    return std::tie(m.epoch, m.poll_seq, m.marks_sent, m.marks_processed);
  }
  friend bool operator==(const GtStatusMsg&, const GtStatusMsg&) = default;
};

struct GtFinishMsg {
  static constexpr std::uint8_t kTag = 13;
  std::uint64_t epoch = 0;
  static auto fields(auto& m) { return std::tie(m.epoch); }
  friend bool operator==(const GtFinishMsg&, const GtFinishMsg&) = default;
};

namespace baseline_wire {
inline void put(ByteWriter& w, std::uint64_t v) { w.u64(v); }
inline void put(ByteWriter& w, const std::vector<RefId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (RefId r : v) w.u64(r);
}
template <class T>
void get(ByteReader& r, T& v) { v = static_cast<T>(r.u64()); }
inline void get(ByteReader& r, std::vector<RefId>& v) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 8) throw DecodeError("ref vector length too large");
  v.resize(n);
  for (RefId& x : v) x = r.u64();
}
}  // namespace baseline_wire

template <class M>
std::vector<std::byte> encode_baseline(const M& m) {
  static_assert(kReservedTags.contains(M::kTag));
  ByteWriter w;
  w.u8(M::kTag);
  std::apply([&](const auto&... f) { (baseline_wire::put(w, f), ...); }, M::fields(m));
  return w.take();
}

/// Throws DecodeError on malformed input or a tag other than M's.
template <class M>
M decode_baseline(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  if (r.u8() != M::kTag) throw DecodeError("wrong baseline message tag");
  M m;
  std::apply([&](auto&... f) { (baseline_wire::get(r, f), ...); }, M::fields(m));
  r.expect_done();
  return m;
}

/// Shared by every process one Baselines instance attached to.
struct BaselineCounters {
  Counter backtrace_requests;
  Counter backtrace_replies;
  Counter backtrace_cycles_found;
  Counter gt_scions_deleted;
};

}  // namespace adgc
