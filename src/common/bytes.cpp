#include "src/common/bytes.h"

namespace adgc {

namespace {
// Length prefixes above this are treated as corruption rather than honest
// payloads; keeps fuzzed/truncated input from triggering huge allocations.
constexpr std::uint32_t kMaxLen = 1u << 30;
}  // namespace

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void ByteWriter::bytes(std::span<const std::byte> b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b.data(), b.size());
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v;
  std::memcpy(&v, buf_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v;
  std::memcpy(&v, buf_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v;
  std::memcpy(&v, buf_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t b = u8();
    if (shift == 63 && b > 1) {  // the tenth byte holds bit 63 alone
      throw DecodeError(b & 0x80 ? "varint longer than 10 bytes" : "varint overflows u64");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) {
      if (b == 0 && shift > 0) throw DecodeError("varint not in shortest form");
      return v;
    }
  }
}

std::uint32_t ByteReader::varint_u32() {
  const std::uint64_t v = varint();
  if (v > UINT32_MAX) throw DecodeError("varint overflows u32");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t ByteReader::varint_count(std::size_t min_bytes) {
  const std::uint64_t n = varint();
  if (n > remaining() / min_bytes) throw DecodeError("element count exceeds the bytes left");
  return n;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (n > kMaxLen) throw DecodeError("string length prefix too large");
  need(n);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::byte> ByteReader::bytes() {
  const std::uint32_t n = u32();
  if (n > kMaxLen) throw DecodeError("blob length prefix too large");
  need(n);
  std::vector<std::byte> b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                           buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

}  // namespace adgc
