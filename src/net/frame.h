// Wire framing for the TCP transport.
//
// TCP is a byte stream; the ADGC wire protocol is message-oriented. A frame
// is a fixed 32-byte header followed by the payload (an encoded
// MessagePayload for data frames, empty for hello frames):
//
//   offset  size  field
//   0       4     magic 0x43474441 ("ADGC" little-endian)
//   4       2     frame-format version (kFrameVersion)
//   6       2     frame kind (FrameKind)
//   8       4     source ProcessId
//   12      4     destination ProcessId
//   16      4     source incarnation
//   20      4     destination incarnation as known by the sender, or
//                 kUnknownIncarnation when the sender has not yet heard from
//                 the destination in its current lifetime
//   24      4     payload length (bytes; bounded by kMaxFramePayload)
//   28      4     CRC-32 of the payload bytes
//   32      ...   payload
//
// The decoder is incremental (feed whatever recv() produced, pop complete
// frames) and *rejecting*: a bad magic, unsupported version, oversized
// length or CRC mismatch poisons the stream — the only safe response to
// framing desynchronization on a byte stream is to drop the connection and
// let the reconnect path re-establish it. Message-level decode errors
// (payload bytes that are not a valid MessagePayload) are NOT the frame
// layer's business; they surface later in Process::deliver, which already
// tolerates undecodable messages.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/net/message.h"

namespace adgc {

inline constexpr std::uint32_t kFrameMagic = 0x43474441u;  // "ADGC"
/// 2: NewSetStubs listings as runs and CDMs as varints (message.cpp). A
/// peer speaking another version has its connection dropped.
inline constexpr std::uint16_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 32;
/// Hard bound on a frame payload. The largest legitimate messages (CDMs over
/// huge algebras, invocations with big marshalled arguments) stay far below
/// this; anything larger is framing corruption or an attack.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB
static_assert(kMaxDecodedRefs <= kMaxFramePayload / sizeof(RefId),
              "a frame may not decode to more refs than fixed-width refs could fill");

/// Sentinel destination incarnation: "sender does not know yet". Receivers
/// accept such frames against any local incarnation (the payload protocols
/// are all loss- and stale-tolerant; the handshake converges immediately
/// after the first hello exchange).
inline constexpr Incarnation kUnknownIncarnation = ~Incarnation{0};

enum class FrameKind : std::uint16_t {
  /// Connection greeting: announces (src pid, src incarnation). First frame
  /// on every freshly established connection, in both directions. Empty
  /// payload.
  kHello = 1,
  /// One Envelope: the payload is the encoded MessagePayload.
  kData = 2,
  /// One Envelope whose payload is an encoded BatchMsg: several coalesced
  /// control messages sharing this frame's header and CRC. The decoder
  /// additionally walks the nested length structure up front, so a frame
  /// that passed the CRC but has inconsistent inner lengths still poisons
  /// the stream instead of surfacing garbage item slices downstream.
  kBatch = 3,
};

/// A decoded frame header plus its payload.
struct Frame {
  FrameKind kind = FrameKind::kData;
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Incarnation src_inc = 0;
  Incarnation dst_inc = kUnknownIncarnation;
  std::vector<std::byte> payload;
};

/// Serializes a frame (header + payload + CRC).
std::vector<std::byte> encode_frame(const Frame& frame);

/// Convenience: wraps an Envelope as a data frame.
std::vector<std::byte> encode_data_frame(const Envelope& env);

/// Convenience: a hello frame for (pid, incarnation).
std::vector<std::byte> encode_hello_frame(ProcessId self, Incarnation inc);

/// Incremental frame decoder over a TCP byte stream.
class FrameDecoder {
 public:
  enum class Error {
    kNone = 0,
    kBadMagic,
    kBadVersion,
    kBadKind,
    kOversized,
    kBadCrc,
    kBadBatch,
  };

  /// Appends raw bytes from the stream.
  void feed(std::span<const std::byte> bytes);

  /// Pops the next complete frame, or nullopt when more bytes are needed or
  /// the stream is poisoned. After an error, next() never yields again.
  std::optional<Frame> next();

  Error error() const { return error_; }
  bool failed() const { return error_ != Error::kNone; }
  /// Human-readable description of the failure ("" when healthy).
  std::string error_detail() const;

  /// Bytes buffered but not yet consumed (diagnostics / backpressure).
  std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  void compact();

  std::vector<std::byte> buf_;
  std::size_t consumed_ = 0;
  Error error_ = Error::kNone;
};

/// Peeks the message type tag of an encoded MessagePayload without decoding
/// it (first byte of the codec's output). Returns 0 for an empty buffer.
/// The TCP write queue uses this for priority shedding without paying a full
/// decode per queued message.
std::uint8_t peek_message_tag(std::span<const std::byte> payload);

/// True when the encoded payload is a CDM / NewSetStubs message — the two
/// sheddable kinds under the PR 2 priority rules.
bool is_cdm_payload(std::span<const std::byte> payload);
bool is_new_set_stubs_payload(std::span<const std::byte> payload);

/// True when the encoded payload is a coalesced batch. Batch frames are
/// never shed by the TCP write queue: a batch may carry AddScion acks,
/// which sit above the shedding line.
bool is_batch_payload(std::span<const std::byte> payload);

/// Structural check of an encoded BatchMsg: batch tag, item count, and
/// nested item lengths must tile the payload exactly, with no empty and no
/// nested-batch items. Used by the frame decoder on kBatch frames and by
/// the fuzz harness; message-level item decoding still happens later in
/// Process::deliver.
bool validate_batch_payload(std::span<const std::byte> payload);

}  // namespace adgc
