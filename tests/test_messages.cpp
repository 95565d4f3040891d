// Wire codec round-trip tests for every message type, plus malformed-input
// rejection: the varint rules, the run and gap overflow checks and the
// per-frame decode budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/net/message.h"

namespace adgc {
namespace {

template <typename T>
T round_trip(const T& msg) {
  const auto bytes = encode_message(MessagePayload{msg});
  const MessagePayload decoded = decode_message(bytes);
  const T* out = std::get_if<T>(&decoded);
  EXPECT_NE(out, nullptr) << "decoded to a different alternative";
  return out ? *out : T{};
}

TEST(Messages, InvokeRoundTrip) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  m.ic = 42;
  m.target = ObjectId{2, 7};
  m.caller = ObjectId{1, 3};
  m.effect = InvokeEffect::kStoreArgs;
  m.args = {{make_ref_id(1, 6), ObjectId{3, 9}}, {kNoRef, ObjectId{2, 1}}};
  m.want_reply = true;
  m.call_id = 77;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, InvokeEmptyArgs) {
  InvokeMsg m;
  m.ref = make_ref_id(9, 1);
  m.effect = InvokeEffect::kTouch;
  m.want_reply = false;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, ReplyRoundTrip) {
  ReplyMsg m;
  m.ref = make_ref_id(4, 4);
  m.ic = 1234567890123ULL;
  m.call_id = 55;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, NewSetStubsRoundTrip) {
  NewSetStubsMsg m;
  m.export_seq = 17;
  m.live = {make_ref_id(0, 1), make_ref_id(0, 2), make_ref_id(5, 900)};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, NewSetStubsEmpty) {
  NewSetStubsMsg m;
  m.export_seq = 1;
  EXPECT_EQ(round_trip(m), m);
}

std::vector<std::byte> bytes_of(const std::vector<int>& v) {
  std::vector<std::byte> out;
  for (int b : v) out.push_back(static_cast<std::byte>(b));
  return out;
}

/// `n` random strictly ascending refs: dense runs, isolated refs, or both,
/// starting anywhere from 0 to just below 2^64.
std::vector<RefId> random_set(Rng& rng, std::size_t n) {
  const int shape = static_cast<int>(rng.below(3));
  const RefId near_top = ~RefId{0} - 2 * n - 64;
  const RefId starts[] = {0, 1, make_ref_id(3, 0), near_top, rng.next_u64() >> 1};
  RefId at = starts[rng.below(5)];
  std::vector<RefId> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(at);
    const bool dense = shape == 0 || (shape == 2 && rng.chance(0.7));
    at += dense ? 1 : 2 + rng.below(rng.chance(0.5) ? 3 : 1u << 20);
    if (at < out.back()) break;  // wrapped past 2^64
  }
  return out;
}

TEST(Messages, NewSetStubsWireLayout) {
  // Runs 5..7, 10 and 12..13: gaps 5, 10-7-2 = 1 and 12-10-2 = 0; each
  // run's length is written minus one.
  NewSetStubsMsg m;
  m.export_seq = 0x0102030405060708;
  m.live = {5, 6, 7, 10, 12, 13};
  EXPECT_EQ(encode_message(MessagePayload{m}),
            bytes_of({3, 8, 7, 6, 5, 4, 3, 2, 1, 3, 5, 2, 1, 0, 0, 1}));
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, CdmWireLayout) {
  // Scalars as varints; each set a count, then per element the gap from the
  // previous ref + 1 and the IC. 300 is 0xAC 0x02.
  CdmMsg m;
  m.detection = DetectionId{1, 2};
  m.candidate = 3;
  m.via = 4;
  m.via_ic = 5;
  m.hops = 6;
  m.source = {{10, 1}, {11, 0}};
  m.target = {{300, 7}};
  EXPECT_EQ(encode_message(MessagePayload{m}),
            bytes_of({6, 1, 2, 3, 4, 5, 6, 2, 10, 1, 0, 0, 1, 0xAC, 0x02, 7}));
  EXPECT_EQ(encoded_size(m), 16u);
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, InvokeAndReplyKeepFixedWidth) {
  // perfbench subtracts one invocation's and one reply's size from the
  // traffic, which holds only while every call encodes to the same size.
  EXPECT_EQ(encode_message(MessagePayload{ReplyMsg{}}).size(), 1u + 3 * 8);
  EXPECT_EQ(encode_message(MessagePayload{InvokeMsg{}}).size(),
            1u + 8 + 8 + 12 + 12 + 1 + 4 + 4 + 1 + 8);
  InvokeMsg inv;
  inv.ref = make_ref_id(1, 5);
  inv.ic = 1;
  inv.target = ObjectId{2, 7};
  EXPECT_EQ(encode_message(MessagePayload{inv}).size(),
            encode_message(MessagePayload{InvokeMsg{}}).size());
}

TEST(Messages, RandomSetsRoundTrip) {
  Rng rng(31);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = iter % 50 == 0 ? 0 : rng.below(iter % 7 == 0 ? 3000 : 40);
    NewSetStubsMsg nss;
    nss.export_seq = rng.next_u64();
    nss.live = random_set(rng, n);
    EXPECT_EQ(round_trip(nss), nss) << iter;

    CdmMsg cdm;
    cdm.detection = DetectionId{static_cast<ProcessId>(rng.next_u64()), rng.next_u64()};
    cdm.candidate = rng.chance(0.2) ? kNoRef : rng.next_u64();
    cdm.via = rng.next_u64() >> rng.below(64);
    cdm.via_ic = rng.next_u64() >> rng.below(64);
    cdm.hops = static_cast<std::uint32_t>(rng.next_u64());
    for (RefId r : random_set(rng, n / 4)) cdm.source.push_back({r, rng.next_u64() >> 40});
    for (RefId r : random_set(rng, n / 8)) cdm.target.push_back({r, rng.below(3)});
    EXPECT_EQ(round_trip(cdm), cdm) << iter;
    EXPECT_EQ(encoded_size(cdm), encode_message(MessagePayload{cdm}).size()) << iter;
  }
}

TEST(Messages, ListingsAtTheEdgesOfU64) {
  const RefId max = ~RefId{0};
  const std::vector<std::vector<RefId>> listings = {
      {0}, {0, 1, 2}, {max}, {max - 1, max}, {0, max}, {0, 2, max - 2, max}};
  for (const std::vector<RefId>& live : listings) {
    NewSetStubsMsg m;
    m.live = live;
    EXPECT_EQ(round_trip(m), m);
  }
}

TEST(Messages, ConsecutiveListingCostsOneRun) {
  NewSetStubsMsg m;
  for (std::uint64_t i = 0; i < 10'000; ++i) m.live.push_back(make_ref_id(1, 7 + i));
  const auto bytes = encode_message(MessagePayload{m});
  // tag, export_seq, one run: count, the first ref (6 bytes) and 9,999.
  EXPECT_EQ(bytes.size(), 1u + 8 + 1 + 6 + 2);
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, UnsortedListingIsSentAsItsSet) {
  NewSetStubsMsg m;
  m.export_seq = 4;
  m.live = {9, 3, 4, 9, 1};
  NewSetStubsMsg want = m;
  want.live = {1, 3, 4, 9};
  EXPECT_EQ(round_trip(m), want);
  EXPECT_EQ(encode_message(MessagePayload{m}), encode_message(MessagePayload{want}));
}

TEST(Messages, CdmSetNotStrictlyAscendingIsACallerBug) {
  CdmMsg m;
  m.source = {{5, 1}, {5, 2}};  // one ref, two ICs: a conflict, never deduplicated
  EXPECT_THROW(encode_message(MessagePayload{m}), std::invalid_argument);
  EXPECT_THROW(encoded_size(m), std::invalid_argument);
  m.source = {{6, 0}, {5, 0}};
  EXPECT_THROW(encode_message(MessagePayload{m}), std::invalid_argument);
  m.source.clear();
  m.target = {{1, 0}, {1, 0}};
  EXPECT_THROW(encode_message(MessagePayload{m}), std::invalid_argument);
  // Nothing is written before the check: a shared buffer stays as it was.
  ByteWriter w;
  w.u32(7);
  EXPECT_THROW(encode_message_into(w, MessagePayload{m}), std::invalid_argument);
  EXPECT_EQ(w.size(), 4u);
}

/// A NewSetStubs body (tag, export_seq) followed by `tail`.
std::vector<std::byte> nss_with(const std::vector<int>& tail) {
  std::vector<std::byte> out = bytes_of({3, 0, 0, 0, 0, 0, 0, 0, 0});
  const auto rest = bytes_of(tail);
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// A NewSetStubs whose listing is the given (gap, length - 1) runs.
std::vector<std::byte> nss_runs(std::initializer_list<std::pair<RefId, std::uint64_t>> runs) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageTag::kNewSetStubs));
  w.u64(1);
  w.varint(runs.size());
  for (const auto& [gap, extra] : runs) {
    w.varint(gap);
    w.varint(extra);
  }
  return w.take();
}

TEST(Messages, VarintRulesRejected) {
  EXPECT_THROW(decode_message(nss_with({0x80})), DecodeError) << "truncated varint";
  EXPECT_THROW(decode_message(nss_with({1, 0x85})), DecodeError) << "truncated in a run";
  EXPECT_THROW(decode_message(nss_with({0x80, 0})), DecodeError) << "not shortest form";
  // One run whose first ref is a ten-byte varint: 2^64 - 1 decodes; a
  // tenth byte above 1, or an eleventh byte, does not.
  std::vector<int> run = {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0};
  EXPECT_NO_THROW(decode_message(nss_with(run)));
  run[10] = 0x02;
  EXPECT_THROW(decode_message(nss_with(run)), DecodeError) << "past 2^64 - 1";
  run = {1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0};
  EXPECT_THROW(decode_message(nss_with(run)), DecodeError) << "eleven-byte varint";
}

TEST(Messages, ListingOverflowRejected) {
  const RefId max = ~RefId{0};
  EXPECT_NO_THROW(decode_message(nss_runs({{max - 1, 1}})));
  EXPECT_THROW(decode_message(nss_runs({{max - 1, 2}})), DecodeError) << "run past 2^64";
  EXPECT_THROW(decode_message(nss_runs({{max, 1}})), DecodeError);
  // A later run starts at the previous run's last + 2 + gap.
  EXPECT_NO_THROW(decode_message(nss_runs({{max - 3, 0}, {1, 0}})));
  EXPECT_THROW(decode_message(nss_runs({{max - 3, 0}, {2, 0}})), DecodeError) << "gap";
  EXPECT_THROW(decode_message(nss_runs({{max - 1, 0}, {0, 0}})), DecodeError);
  EXPECT_THROW(decode_message(nss_runs({{max, 0}, {0, 0}})), DecodeError);
}

TEST(Messages, CountsBeyondTheBytesLeftRejected) {
  // A run is at least two bytes, as is a CDM element.
  EXPECT_THROW(decode_message(nss_with({2, 0, 0, 0})), DecodeError);
  EXPECT_NO_THROW(decode_message(nss_with({2, 0, 0, 0, 0})));
  EXPECT_THROW(decode_message(nss_with({0xff, 0xff, 0xff, 0xff, 0x0f})), DecodeError);
  const auto cdm = [](int count, const std::vector<int>& elems) {
    std::vector<std::byte> b = bytes_of({6, 0, 0, 0, 0, 0, 0, count});
    const auto e = bytes_of(elems);
    b.insert(b.end(), e.begin(), e.end());
    b.push_back(std::byte{0});  // empty target set
    return b;
  };
  EXPECT_NO_THROW(decode_message(cdm(2, {1, 0, 1, 0})));
  EXPECT_THROW(decode_message(cdm(3, {1, 0, 1, 0})), DecodeError);
  EXPECT_THROW(decode_message(cdm(100, {1, 0, 1, 0})), DecodeError);
}

TEST(Messages, CdmFieldsOutOfRangeRejected) {
  const std::uint64_t big = std::uint64_t{1} << 32;
  const auto cdm = [](std::uint64_t initiator, std::uint64_t hops) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(MessageTag::kCdm));
    w.varint(initiator);
    for (int i = 0; i < 4; ++i) w.varint(1);  // seq, candidate, via, via_ic
    w.varint(hops);
    w.varint(0);
    w.varint(0);
    return w.take();
  };
  EXPECT_NO_THROW(decode_message(cdm(big - 1, big - 1)));
  EXPECT_THROW(decode_message(cdm(big, 0)), DecodeError) << "initiator is a u32";
  EXPECT_THROW(decode_message(cdm(0, big)), DecodeError) << "hops is a u32";
  // An element after 2^64 - 1.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MessageTag::kCdm));
  for (int i = 0; i < 6; ++i) w.varint(0);
  w.varint(2);
  w.varint(~std::uint64_t{0});
  w.varint(0);
  w.varint(0);
  w.varint(0);
  w.varint(0);
  EXPECT_THROW(decode_message(w.data()), DecodeError);
}

TEST(Messages, ListingBeyondTheBudgetRejectedBeforeAllocating) {
  // One run of 2^61 refs in a 20-byte message: the budget refuses it before
  // a vector is sized (a vector that large would throw length_error).
  EXPECT_THROW(decode_message(nss_runs({{0, (std::uint64_t{1} << 61) - 1}})), DecodeError);
  EXPECT_THROW(decode_message(nss_runs({{0, kMaxDecodedRefs}})), DecodeError);
  const std::uint64_t half = kMaxDecodedRefs / 2;
  EXPECT_THROW(decode_message(nss_runs({{0, half}, {0, half}})), DecodeError);
  EXPECT_THROW(decode_message(nss_runs({{0, ~std::uint64_t{0}}})), DecodeError);
}

TEST(Messages, BatchBeyondTheBudgetRejected) {
  // 1,000 items of a few bytes, each a listing of the whole budget: any one
  // alone is a legal frame, but one batch frame shares one budget, so the
  // second item throws before its vector exists.
  BatchMsg batch;
  for (int i = 0; i < 1000; ++i) batch.items.push_back(nss_runs({{0, kMaxDecodedRefs - 1}}));
  EXPECT_LT(encode_message(MessagePayload{batch}).size(), 20'000u);
  EXPECT_THROW(decode_batch_items(batch), DecodeError);

  // The first item leaves room for 2^22 refs; the second asks for 2^61.
  batch.items = {nss_runs({{0, kMaxDecodedRefs / 2 - 1}}),
                 nss_runs({{0, (std::uint64_t{1} << 61) - 1}})};
  EXPECT_THROW(decode_batch_items(batch), DecodeError);

  // CDM elements draw on the same budget, two each.
  ByteWriter cdm;
  cdm.u8(static_cast<std::uint8_t>(MessageTag::kCdm));
  for (int i = 0; i < 6; ++i) cdm.varint(0);
  cdm.varint(2);
  for (int i = 0; i < 4; ++i) cdm.varint(0);
  cdm.varint(0);
  batch.items = {nss_runs({{0, kMaxDecodedRefs - 5}}), cdm.data()};  // 4 refs left
  EXPECT_NO_THROW(decode_batch_items(batch));
  batch.items = {nss_runs({{0, kMaxDecodedRefs - 4}}), cdm.data()};
  EXPECT_THROW(decode_batch_items(batch), DecodeError);
}

TEST(Messages, AddScionRoundTrip) {
  AddScionMsg m;
  m.ref = make_ref_id(3, 14);
  m.target_seq = 159;
  m.holder = 26;
  m.handshake = 535;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, AddScionAckRoundTrip) {
  AddScionAckMsg m;
  m.ref = make_ref_id(2, 71);
  m.handshake = 828;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, CdmRoundTrip) {
  CdmMsg m;
  m.detection = DetectionId{2, 99};
  m.candidate = make_ref_id(2, 1);
  m.via = make_ref_id(3, 7);
  m.via_ic = 4;
  m.hops = 12;
  m.source = {{make_ref_id(2, 1), 4}, {make_ref_id(4, 2), 0}};
  m.target = {{make_ref_id(3, 7), 4}};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Messages, UnknownTagRejected) {
  std::vector<std::byte> bytes = {std::byte{0xEE}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, ReservedTagsRejected) {
  for (int tag = 7; tag <= 13; ++tag) {
    ASSERT_TRUE(kReservedTags.contains(static_cast<std::uint8_t>(tag)));
    // A tag alone, and a tag followed by an 8-byte body.
    std::vector<std::byte> bytes(9, std::byte{0});
    bytes[0] = static_cast<std::byte>(tag);
    EXPECT_THROW(decode_message(std::span(bytes).first(1)), DecodeError) << tag;
    EXPECT_THROW(decode_message(bytes), DecodeError) << tag;
  }
  EXPECT_FALSE(kReservedTags.contains(static_cast<std::uint8_t>(MessageTag::kCdm)));
  EXPECT_FALSE(kReservedTags.contains(static_cast<std::uint8_t>(MessageTag::kBatch)));
}

TEST(Messages, EmptyBufferRejected) {
  EXPECT_THROW(decode_message(std::vector<std::byte>{}), DecodeError);
}

TEST(Messages, TruncatedRejected) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  auto bytes = encode_message(MessagePayload{m});
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    std::vector<std::byte> trunc(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_message(trunc), DecodeError) << "cut=" << cut;
  }
}

TEST(Messages, TrailingGarbageRejected) {
  ReplyMsg m;
  m.ref = make_ref_id(1, 1);
  auto bytes = encode_message(MessagePayload{m});
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BadInvokeEffectRejected) {
  InvokeMsg m;
  m.ref = make_ref_id(1, 5);
  auto bytes = encode_message(MessagePayload{m});
  // The effect byte sits after tag(1)+ref(8)+ic(8)+target(12)+caller(12).
  bytes[1 + 8 + 8 + 12 + 12] = std::byte{200};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, KindNames) {
  EXPECT_STREQ(message_kind(MessagePayload{InvokeMsg{}}), "Invoke");
  EXPECT_STREQ(message_kind(MessagePayload{CdmMsg{}}), "Cdm");
  EXPECT_STREQ(message_kind(MessagePayload{NewSetStubsMsg{}}), "NewSetStubs");
  EXPECT_STREQ(message_kind(MessagePayload{BatchMsg{}}), "Batch");
}

BatchMsg sample_batch() {
  CdmMsg cdm;
  cdm.detection = DetectionId{3, 9};
  cdm.candidate = make_ref_id(3, 1);
  NewSetStubsMsg nss;
  nss.export_seq = 5;
  nss.live = {make_ref_id(0, 1), make_ref_id(0, 2)};
  AddScionAckMsg ack;
  ack.ref = make_ref_id(4, 4);
  ack.handshake = 77;
  BatchMsg batch;
  batch.items.push_back(encode_message(MessagePayload{cdm}));
  batch.items.push_back(encode_message(MessagePayload{nss}));
  batch.items.push_back(encode_message(MessagePayload{ack}));
  return batch;
}

TEST(Messages, BatchRoundTrip) {
  const BatchMsg batch = sample_batch();
  EXPECT_EQ(round_trip(batch), batch);
  const auto items = decode_batch_items(batch);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_STREQ(message_kind(items[0]), "Cdm");
  EXPECT_STREQ(message_kind(items[1]), "NewSetStubs");
  EXPECT_STREQ(message_kind(items[2]), "AddScionAck");
  EXPECT_EQ(std::get<AddScionAckMsg>(items[2]).handshake, 77u);
}

TEST(Messages, EmptyBatchRejected) {
  // tag + count=0: a batch must carry at least one item.
  std::vector<std::byte> bytes = {std::byte{14}, std::byte{0}, std::byte{0},
                                  std::byte{0}, std::byte{0}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BatchTruncationRejected) {
  const auto bytes = encode_message(MessagePayload{sample_batch()});
  for (std::size_t cut = 1; cut < bytes.size(); cut += 5) {
    std::vector<std::byte> trunc(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_message(trunc), DecodeError) << "cut=" << cut;
  }
}

TEST(Messages, BatchHugeCountRejected) {
  // Item count far beyond what the remaining bytes could hold must be
  // refused up front, before any per-item allocation.
  auto bytes = encode_message(MessagePayload{sample_batch()});
  bytes[1] = std::byte{0xff};
  bytes[2] = std::byte{0xff};
  bytes[3] = std::byte{0xff};
  bytes[4] = std::byte{0x7f};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, NestedBatchRejected) {
  BatchMsg inner;
  inner.items.push_back(encode_message(MessagePayload{ReplyMsg{}}));
  BatchMsg outer;
  outer.items.push_back(encode_message(MessagePayload{inner}));
  const auto bytes = encode_message(MessagePayload{outer});
  EXPECT_THROW(decode_message(bytes), DecodeError);
  // decode_batch_items applies the same rule when handed a hand-built batch.
  EXPECT_THROW(decode_batch_items(outer), DecodeError);
}

TEST(Messages, BatchEmptyItemRejected) {
  // tag + count=1 + item length 0.
  std::vector<std::byte> bytes = {std::byte{14}, std::byte{1}, std::byte{0},
                                  std::byte{0},  std::byte{0}, std::byte{0},
                                  std::byte{0},  std::byte{0}, std::byte{0}};
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Messages, BatchItemGarbagePoisonsWholeBatch) {
  BatchMsg batch = sample_batch();
  batch.items[1][0] = std::byte{0xEE};  // unknown tag inside item 1
  EXPECT_THROW(decode_batch_items(batch), DecodeError)
      << "a corrupt item must poison the whole batch, not skip it";
}

}  // namespace
}  // namespace adgc
