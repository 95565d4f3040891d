// Unit tests for the acyclic reference-listing protocol: NewSetStubs
// construction/application, confirmation state machine, staleness and grace.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/dgc/reference_listing.h"

namespace adgc {
namespace {

constexpr SimTime kGrace = 1000;

TEST(ReferenceListing, BuildAllGroupsStubsByContact) {
  StubTable stubs;
  stubs.ensure(make_ref_id(0, 3), ObjectId{1, 30});
  stubs.ensure(make_ref_id(0, 1), ObjectId{1, 10});
  stubs.ensure(make_ref_id(0, 2), ObjectId{2, 20});
  stubs.ensure(make_ref_id(0, 4), ObjectId{4, 40});

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

/// The hash-set apply that the in-step walk replaced, kept as its oracle.
ApplyNssResult apply_with_hash_set(ScionTable& scions, ProcessId holder,
                                   const NewSetStubsMsg& msg, SimTime now,
                                   SimTime pending_grace) {
  ApplyNssResult res;
  if (!scions.accept_export_seq(holder, msg.export_seq)) {
    res.stale = true;
    return res;
  }
  const std::unordered_set<RefId> live(msg.live.begin(), msg.live.end());
  std::vector<RefId> doomed;
  for (auto& [ref, scion] : scions) {
    if (scion.holder != holder) continue;
    if (live.contains(ref)) {
      if (!scion.confirmed) {
        scion.confirmed = true;
        ++res.confirmed;
      }
      continue;
    }
    if (scion.confirmed || now >= scion.created_at + pending_grace) doomed.push_back(ref);
  }
  for (RefId ref : doomed) scions.erase(ref);
  res.deleted = doomed.size();
  return res;
}

std::set<RefId> refs_of(const ScionTable& scions, bool confirmed_only) {
  std::set<RefId> out;
  for (const auto& [ref, scion] : scions) {
    if (!confirmed_only || scion.confirmed) out.insert(ref);
  }
  return out;
}

TEST(ReferenceListing, InStepApplyMatchesHashSetOracle) {
  Rng rng(17);
  for (int iter = 0; iter < 500; ++iter) {
    // Scions of three holders over a small ref space, so listings hit, miss
    // and interleave with other holders' refs.
    ScionTable scions;
    const std::uint64_t space = 8 + rng.below(200);
    for (std::uint64_t k = 0; k < space; ++k) {
      if (!rng.chance(0.6)) continue;
      auto& sc = scions.ensure(make_ref_id(1, k), static_cast<ProcessId>(rng.below(3)), k,
                               static_cast<SimTime>(rng.below(2 * kGrace)));
      sc.confirmed = rng.chance(0.5);
    }
    const ProcessId holder = static_cast<ProcessId>(rng.below(3));
    NewSetStubsMsg msg;
    msg.export_seq = rng.below(3);
    for (std::uint64_t k = 0; k < space + 4; ++k) {
      if (rng.chance(0.4)) msg.live.push_back(make_ref_id(1, k));
    }
    if (rng.chance(0.3)) msg.live.push_back(make_ref_id(2, 0));  // past every scion
    if (rng.chance(0.3)) {
      // A hand-built listing: shuffled, with repeats.
      for (std::size_t i = 0; i < msg.live.size() / 4; ++i) {
        msg.live.push_back(msg.live[rng.below(msg.live.size())]);
      }
      for (std::size_t i = msg.live.size(); i > 1; --i) {
        std::swap(msg.live[i - 1], msg.live[rng.below(i)]);
      }
    }
    if (rng.chance(0.3)) scions.accept_export_seq(holder, 1);  // seq 0 and 1 go stale
    const SimTime now = static_cast<SimTime>(rng.below(3 * kGrace));

    ScionTable want = scions;
    const ApplyNssResult expected = apply_with_hash_set(want, holder, msg, now, kGrace);
    const ApplyNssResult got = apply_new_set_stubs(scions, holder, msg, now, kGrace);
    ASSERT_EQ(got.stale, expected.stale) << iter;
    ASSERT_EQ(got.deleted, expected.deleted) << iter;
    ASSERT_EQ(got.confirmed, expected.confirmed) << iter;
    ASSERT_EQ(refs_of(scions, false), refs_of(want, false)) << iter << ": deleted set";
    ASSERT_EQ(refs_of(scions, true), refs_of(want, true)) << iter << ": confirmed set";
  }
}

TEST(ScionTable, DropHolderErasesItsScionsAndWatermark) {
  ScionTable scions;
  scions.ensure(make_ref_id(1, 1), 1, 10, 0);
  scions.ensure(make_ref_id(1, 2), 1, 11, 0);
  scions.ensure(make_ref_id(2, 1), 2, 12, 0);
  ASSERT_TRUE(scions.accept_export_seq(1, 7));
  ASSERT_TRUE(scions.accept_export_seq(2, 7));

  EXPECT_EQ(scions.drop_holder(1), 2u);
  EXPECT_EQ(scions.size(), 1u);
  EXPECT_TRUE(scions.contains(make_ref_id(2, 1)));
  EXPECT_TRUE(scions.accept_export_seq(1, 1)) << "holder 1's watermark forgotten";
  EXPECT_FALSE(scions.accept_export_seq(2, 1)) << "holder 2's watermark kept";
  EXPECT_EQ(scions.drop_holder(9), 0u);
}

TEST(StubTable, EnsureIsIdempotent) {
  StubTable stubs;
  auto& a = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1});
  a.ic = 42;
  auto& b = stubs.ensure(make_ref_id(0, 1), ObjectId{1, 1});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.ic, 42u);
  EXPECT_EQ(stubs.ref_at(b.slot), make_ref_id(0, 1));
}

TEST(StubTable, ListingVersionTracksInsertAndErase) {
  StubTable stubs;
  const RefId r1 = make_ref_id(0, 1);
  EXPECT_EQ(stubs.listing_version(1), 0u);
  stubs.ensure(r1, ObjectId{1, 10});
  const std::uint64_t v1 = stubs.listing_version(1);
  EXPECT_GT(v1, 0u) << "insert advances";

  stubs.ensure(r1, ObjectId{1, 10});
  stubs.ensure(make_ref_id(0, 2), ObjectId{2, 20});
  stubs.erase(make_ref_id(0, 9));
  EXPECT_EQ(stubs.listing_version(1), v1)
      << "re-ensure of a present ref, another owner's stub and an absent erase";

  stubs.erase(r1);
  const std::uint64_t v2 = stubs.listing_version(1);
  EXPECT_GT(v2, v1) << "erase advances";
  stubs.ensure(r1, ObjectId{1, 10});
  EXPECT_GT(stubs.listing_version(1), v2) << "the same listing again is still a new version";

  const StubTable copy = stubs;
  EXPECT_EQ(copy.listing_version(1), stubs.listing_version(1));
  EXPECT_EQ(copy.listing_version(2), stubs.listing_version(2));
}

// The owners with a listing version are the NewSetStubs contacts: every
// owner a stub ever pointed at, until it is forgotten.
TEST(StubTable, ListingVersionsKeyEveryOwnerUntilForgotten) {
  StubTable stubs;
  const auto owners = [&] {
    std::vector<ProcessId> out;
    for (const auto& [owner, version] : stubs.listing_versions()) out.push_back(owner);
    return out;
  };
  stubs.ensure(make_ref_id(0, 1), ObjectId{2, 10});
  stubs.ensure(make_ref_id(0, 2), ObjectId{1, 10});
  stubs.erase(make_ref_id(0, 1));
  EXPECT_EQ(owners(), (std::vector<ProcessId>{1, 2})) << "an owner with no stub left stays";

  stubs.forget_owner(2);
  EXPECT_EQ(owners(), std::vector<ProcessId>{1});
  EXPECT_EQ(stubs.listing_version(2), 0u);
  stubs.ensure(make_ref_id(0, 3), ObjectId{2, 11});
  EXPECT_EQ(owners(), (std::vector<ProcessId>{1, 2}));
}

}  // namespace
}  // namespace adgc
