// Little-endian binary buffer reader/writer used by the wire protocol and
// by the binary snapshot serializer.
//
// Two integer encodings: fixed width (u8..u64), which the snapshot and trace
// formats use, and unsigned LEB128 varints, which the wire codec uses for the
// DGC reference lists and CDM fields (src/net/message.cpp).
//
// The writer appends into a growable std::vector<std::byte>; the reader is a
// non-owning view with bounds checking. Decoding failures throw
// adgc::DecodeError: the simulated network may corrupt nothing, but tests
// feed truncated buffers on purpose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"

namespace adgc {

/// Thrown when decoding runs past the end of a buffer or reads a value that
/// violates a protocol invariant (e.g. absurd length prefix).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// The longest LEB128 encoding of a u64: ten groups of seven bits.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Bytes ByteWriter::varint appends for `v`.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Takes ownership of `reuse` as the backing buffer (cleared, capacity
  /// kept). Lets an arena hand out pre-sized buffers so a batch encode does
  /// not pay incremental reallocation.
  explicit ByteWriter(std::vector<std::byte> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Unsigned LEB128: seven bits a byte, low group first, the high bit set
  /// on every byte but the last; always the shortest form.
  void varint(std::uint64_t v) {
    std::uint8_t out[kMaxVarintBytes];
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) out[n++] = static_cast<std::uint8_t>(v | 0x80);
    out[n++] = static_cast<std::uint8_t>(v);
    raw(out, n);
  }

  void object_id(ObjectId id) {
    u32(id.owner);
    u64(id.seq);
  }

  void detection_id(DetectionId id) {
    u32(id.initiator);
    u64(id.seq);
  }

  /// Length-prefixed string (u32 length).
  void str(std::string_view s);

  /// Length-prefixed blob (u32 length).
  void bytes(std::span<const std::byte> b);

  /// Raw append, no length prefix. resize+memcpy rather than a ranged
  /// insert: GCC 12 at -O3 flags the insert path with a spurious
  /// -Wstringop-overflow, which would break -Werror builds.
  void raw(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  /// Overwrites 4 already-written bytes at `offset` — back-patching for
  /// length/count prefixes whose value is only known after the body is
  /// serialized (the batch encoder's nested-length framing).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    if (offset + sizeof v > buf_.size()) {
      throw std::logic_error("patch_u32 past end of buffer");
    }
    std::memcpy(buf_.data() + offset, &v, sizeof v);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  bool boolean() { return u8() != 0; }

  /// Reads a ByteWriter::varint. Throws DecodeError on a truncated varint,
  /// one longer than kMaxVarintBytes, one whose value overflows 64 bits, and
  /// one not in its shortest form, so every value has exactly one encoding.
  std::uint64_t varint();
  /// A varint that must fit 32 bits.
  std::uint32_t varint_u32();
  /// A varint element count, rejected when the unread bytes cannot hold
  /// that many elements of at least `min_bytes` each.
  std::uint64_t varint_count(std::size_t min_bytes);

  ObjectId object_id() {
    ObjectId id;
    id.owner = u32();
    id.seq = u64();
    return id;
  }

  DetectionId detection_id() {
    DetectionId id;
    id.initiator = u32();
    id.seq = u64();
    return id;
  }

  std::string str();
  std::vector<std::byte> bytes();

  /// Reads `n` raw bytes (no length prefix) — the counterpart of
  /// ByteWriter::raw, used by the batch decoder to slice out nested items.
  std::vector<std::byte> raw(std::size_t n) {
    need(n);
    std::vector<std::byte> out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Number of bytes not yet consumed.
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

  /// Requires that the whole buffer was consumed; guards against protocol
  /// version skew going unnoticed.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after decode");
  }

 private:
  void need(std::size_t n) const {
    if (buf_.size() - pos_ < n) throw DecodeError("buffer underrun");
  }

  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace adgc
