// Unit tests for the acyclic reference-listing protocol: NewSetStubs
// construction/application, confirmation state machine, staleness and grace.
#include <gtest/gtest.h>

#include <vector>

#include "src/dgc/reference_listing.h"

namespace adgc {
namespace {

constexpr SimTime kGrace = 1000;

TEST(ReferenceListing, BuildAllGroupsStubsByContact) {
  StubTable stubs;
  stubs.ensure(make_ref_id(0, 3), ObjectId{1, 30}, 0);
  stubs.ensure(make_ref_id(0, 1), ObjectId{1, 10}, 0);
  stubs.ensure(make_ref_id(0, 2), ObjectId{2, 20}, 0);
  stubs.ensure(make_ref_id(0, 4), ObjectId{4, 40}, 0);

  const auto msgs = build_all_new_set_stubs(stubs, {1, 2, 3});
  ASSERT_EQ(msgs.size(), 3u);
  // Stub-table order, not insertion order.
  EXPECT_EQ(msgs.at(1).live, (std::vector<RefId>{make_ref_id(0, 1), make_ref_id(0, 3)}));
  EXPECT_EQ(msgs.at(2).live, std::vector<RefId>{make_ref_id(0, 2)});
  EXPECT_TRUE(msgs.at(3).live.empty()) << "a contact without stubs gets an empty list";
  EXPECT_FALSE(msgs.contains(4)) << "an owner that is not a contact gets nothing";
  for (const auto& [dst, msg] : msgs) EXPECT_EQ(msg.export_seq, 0u) << "P" << dst;
}

TEST(ReferenceListing, ConfirmedScionDeletedWhenUnlisted) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  auto& sc = scions.ensure(ref, /*holder=*/3, /*target=*/7, /*now=*/0);
  sc.confirmed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 1;  // empty live set
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/10, kGrace);
  EXPECT_FALSE(res.stale);
  EXPECT_EQ(res.deleted, 1u);
  EXPECT_FALSE(scions.contains(ref));
}

TEST(ReferenceListing, ListedScionBecomesConfirmed) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  msg.live = {ref};
  const auto res = apply_new_set_stubs(scions, 3, msg, 10, kGrace);
  EXPECT_EQ(res.confirmed, 1u);
  EXPECT_TRUE(scions.find(ref)->confirmed);
  EXPECT_EQ(res.deleted, 0u);
}

TEST(ReferenceListing, PendingScionProtectedWithinGrace) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, /*now=*/0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/kGrace - 1, kGrace);
  EXPECT_EQ(res.deleted, 0u);
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, PendingScionCollectedAfterGrace) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0);

  NewSetStubsMsg msg;
  msg.export_seq = 1;
  const auto res = apply_new_set_stubs(scions, 3, msg, /*now=*/kGrace + 1, kGrace);
  EXPECT_EQ(res.deleted, 1u);
}

TEST(ReferenceListing, StaleMessageRejected) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  auto& sc = scions.ensure(ref, 3, 7, 0);
  sc.confirmed = true;

  NewSetStubsMsg newer;
  newer.export_seq = 10;
  newer.live = {ref};
  EXPECT_FALSE(apply_new_set_stubs(scions, 3, newer, 5, kGrace).stale);

  NewSetStubsMsg older;  // reordered: computed before, delivered after
  older.export_seq = 4;  // does NOT list the ref
  const auto res = apply_new_set_stubs(scions, 3, older, 6, kGrace);
  EXPECT_TRUE(res.stale);
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, DuplicateMessageIdempotent) {
  ScionTable scions;
  const RefId ref = make_ref_id(3, 1);
  scions.ensure(ref, 3, 7, 0).confirmed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 2;
  msg.live = {ref};
  EXPECT_FALSE(apply_new_set_stubs(scions, 3, msg, 1, kGrace).stale);
  EXPECT_TRUE(apply_new_set_stubs(scions, 3, msg, 2, kGrace).stale);  // dup
  EXPECT_TRUE(scions.contains(ref));
}

TEST(ReferenceListing, OnlyMatchingHolderAffected) {
  ScionTable scions;
  const RefId r3 = make_ref_id(3, 1);
  const RefId r4 = make_ref_id(4, 1);
  scions.ensure(r3, 3, 7, 0).confirmed = true;
  scions.ensure(r4, 4, 7, 0).confirmed = true;

  NewSetStubsMsg msg;
  msg.export_seq = 1;  // empty: deletes everything from holder 3 only
  apply_new_set_stubs(scions, 3, msg, 10, kGrace);
  EXPECT_FALSE(scions.contains(r3));
  EXPECT_TRUE(scions.contains(r4));
}

TEST(ReferenceListing, ExportSeqPerHolder) {
  ScionTable scions;
  EXPECT_TRUE(scions.accept_export_seq(1, 5));
  EXPECT_TRUE(scions.accept_export_seq(2, 3));  // independent counter
  EXPECT_FALSE(scions.accept_export_seq(1, 5));
  EXPECT_TRUE(scions.accept_export_seq(1, 6));
}

TEST(ScionTable, RefsFromHolder) {
  ScionTable scions;
  scions.ensure(make_ref_id(1, 1), 1, 10, 0);
  scions.ensure(make_ref_id(1, 2), 1, 11, 0);
  scions.ensure(make_ref_id(2, 1), 2, 12, 0);
  EXPECT_EQ(scions.refs_from_holder(1).size(), 2u);
  EXPECT_EQ(scions.refs_from_holder(2).size(), 1u);
  EXPECT_TRUE(scions.refs_from_holder(9).empty());
}

TEST(StubTable, EnsureIsIdempotent) {
  StubTable stubs;
  auto& a = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, 5);
  a.ic = 42;
  auto& b = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1}, 9);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.ic, 42u);
  EXPECT_EQ(b.created_at, 5u);
}

}  // namespace
}  // namespace adgc
