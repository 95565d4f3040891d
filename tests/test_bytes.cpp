// Unit tests for the binary buffer reader/writer.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/bytes.h"

namespace adgc {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTripsAndSizes) {
  const std::uint64_t top = std::uint64_t{1} << 63;
  const std::uint64_t values[] = {0, 1, 127, 128, 16'383, 16'384, UINT32_MAX, top, ~top};
  ByteWriter w;
  std::size_t total = 0;
  for (std::uint64_t v : values) {
    const std::size_t before = w.size();
    w.varint(v);
    EXPECT_EQ(w.size() - before, varint_size(v)) << v;
    total += varint_size(v);
  }
  EXPECT_EQ(total, 1u + 1 + 1 + 2 + 2 + 3 + 5 + 10 + 9);
  ByteReader r(w.data());
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRejectsMalformed) {
  const auto read = [](const std::vector<int>& bytes) {
    std::vector<std::byte> b;
    for (int x : bytes) b.push_back(static_cast<std::byte>(x));
    ByteReader r(b);
    return r.varint();
  };
  EXPECT_EQ(read({0xAC, 0x02}), 300u);
  EXPECT_THROW(read({}), DecodeError);
  EXPECT_THROW(read({0x80}), DecodeError) << "truncated";
  EXPECT_THROW(read({0x81, 0x00}), DecodeError) << "not shortest form";
  // Nine 0xff bytes and a tenth of 1 are 2^64 - 1; a tenth above 1
  // overflows, and an eleventh byte is one too many.
  std::vector<int> ten(9, 0xff);
  ten.push_back(0x01);
  EXPECT_EQ(read(ten), ~std::uint64_t{0});
  ten.back() = 0x02;
  EXPECT_THROW(read(ten), DecodeError) << "past 2^64 - 1";
  std::vector<int> eleven(10, 0x80);
  eleven.push_back(0x01);
  EXPECT_THROW(read(eleven), DecodeError) << "eleven bytes";

  ByteWriter w;
  w.varint(std::uint64_t{UINT32_MAX} + 1);
  ByteReader r32(w.data());
  EXPECT_THROW(r32.varint_u32(), DecodeError);
  // A count is checked against the bytes left: 3 elements of 2 bytes need 6.
  ByteWriter c;
  c.varint(3);
  c.raw("\1\2\3\4\5", 5);
  ByteReader rc(c.data());
  EXPECT_THROW(rc.varint_count(2), DecodeError);
}

TEST(Bytes, RoundTripCompositeIds) {
  ByteWriter w;
  w.object_id(ObjectId{7, 42});
  w.detection_id(DetectionId{3, 99});

  ByteReader r(w.data());
  EXPECT_EQ(r.object_id(), (ObjectId{7, 42}));
  EXPECT_EQ(r.detection_id(), (DetectionId{3, 99}));
  r.expect_done();
}

TEST(Bytes, RoundTripStringsAndBlobs) {
  ByteWriter w;
  w.str("hello world");
  w.str("");
  const std::vector<std::byte> blob = {std::byte{1}, std::byte{2}, std::byte{255}};
  w.bytes(blob);

  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, TruncatedLengthPrefixThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Bytes, HugeLengthPrefixRejected) {
  ByteWriter w;
  w.u32(0xFFFFFFFFu);
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Bytes, ExpectDoneCatchesTrailing) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.u64(1);
  w.u64(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 16u);
  r.u64();
  EXPECT_EQ(r.remaining(), 8u);
  r.u64();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Ids, RefIdPacksCreator) {
  const RefId r = make_ref_id(123, 456);
  EXPECT_EQ(ref_id_creator(r), 123u);
  const RefId r2 = make_ref_id(123, 457);
  EXPECT_NE(r, r2);
}

TEST(Ids, ToStringIsHumanReadable) {
  EXPECT_EQ(to_string(ObjectId{1, 2}), "obj(1:2)");
  EXPECT_EQ(to_string(DetectionId{3, 4}), "det(3:4)");
  EXPECT_EQ(ref_to_string(kNoRef), "ref(none)");
  EXPECT_EQ(ref_to_string(make_ref_id(5, 6)), "ref(5:6)");
}

}  // namespace
}  // namespace adgc
