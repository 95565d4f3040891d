// Remote invocation machinery: invocation counters, reference export/import
// (own-object and third-party with the scion-first handshake), invoke
// effects, replies, and the Table-1 DGC-off mode.
#include <gtest/gtest.h>

#include "src/rt/runtime.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

class Rmi : public ::testing::Test {
 protected:
  Rmi() : rt(3, sim::manual_config(71)) {
    a = ObjectId{0, rt.proc(0).create_object()};
    b = ObjectId{1, rt.proc(1).create_object()};
    c = ObjectId{2, rt.proc(2).create_object()};
    rt.proc(0).add_root(a.seq);
    rt.proc(1).add_root(b.seq);
    rt.proc(2).add_root(c.seq);
    a_to_b = rt.link(a, b);
  }

  Runtime rt;
  ObjectId a, b, c;
  RefId a_to_b;
};

TEST_F(Rmi, InvocationBumpsCountersBothSides) {
  const auto ic0_stub = rt.proc(0).stubs().find(a_to_b)->ic;
  const auto ic0_scion = rt.proc(1).scions().find(a_to_b)->ic;
  EXPECT_EQ(ic0_stub, ic0_scion);

  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kTouch);
  rt.run_for(50'000);  // call + reply

  const auto ic1_stub = rt.proc(0).stubs().find(a_to_b)->ic;
  const auto ic1_scion = rt.proc(1).scions().find(a_to_b)->ic;
  // Call bumps once, reply bumps once: +2 total, both sides agree again.
  EXPECT_EQ(ic1_stub, ic0_stub + 2);
  EXPECT_EQ(ic1_scion, ic1_stub);
}

TEST_F(Rmi, InvocationLeavesScionPendingUntilListed) {
  EXPECT_FALSE(rt.proc(1).scions().find(a_to_b)->confirmed);
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kTouch);
  rt.run_for(50'000);
  EXPECT_FALSE(rt.proc(1).scions().find(a_to_b)->confirmed);
  // The holder's next NewSetStubs lists the reference and confirms it.
  rt.proc(0).run_lgc();
  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).scions().find(a_to_b)->confirmed);
}

// An invocation must not confirm a scion. The holder's NewSetStubs built
// before it installed the reference can arrive after an invocation through
// that reference; were the scion confirmed by then, that stale listing
// would delete it while the holder still holds the stub.
TEST(RmiRace, InvokeAheadOfOlderNewSetStubsKeepsScion) {
  RuntimeConfig cfg = sim::manual_config(5);
  cfg.proc.batching_enabled = false;  // the NSS leaves at run_lgc()
  Runtime rt(2, cfg);
  rt.enable_explicit_schedule();
  Process& holder = rt.proc(0);
  Process& owner = rt.proc(1);
  const ObjectSeq h = holder.create_object();
  holder.add_root(h);
  const ObjectSeq y = owner.create_object();
  owner.add_root(y);
  rt.link(ObjectId{0, h}, ObjectId{1, y});  // makes the owner a contact

  const auto deliver = [&](MessageTag tag) {
    for (const auto& e : rt.pending_infos()) {
      if (e.is_message && e.dst == 1 && e.tag == static_cast<std::uint8_t>(tag)) {
        return rt.execute_event(e.id);
      }
    }
    return false;
  };

  // 1. The owner exports X: pending scion.
  const ObjectSeq x = owner.create_object();
  const ExportedRef er = owner.export_own_object(x, /*holder=*/0);
  // 2. The holder's LGC sends a NewSetStubs that does not list X.
  holder.run_lgc();
  // 3. The holder installs X and invokes through it.
  const RefId ref = holder.install_ref(h, er);
  holder.invoke(h, ref, InvokeEffect::kTouch);
  // 4-5. The invocation overtakes the older NewSetStubs.
  ASSERT_TRUE(deliver(MessageTag::kInvoke));
  ASSERT_TRUE(deliver(MessageTag::kNewSetStubs));
  // 6. The owner's LGC must keep X: the holder still holds the stub.
  owner.run_lgc();
  ASSERT_TRUE(holder.stubs().contains(ref));
  EXPECT_TRUE(owner.scions().contains(ref));
  EXPECT_TRUE(owner.heap().exists(x));

  // The holder's next NewSetStubs lists X and confirms the scion.
  holder.run_lgc();
  ASSERT_TRUE(deliver(MessageTag::kNewSetStubs));
  ASSERT_NE(owner.scions().find(ref), nullptr);
  EXPECT_TRUE(owner.scions().find(ref)->confirmed);
}

// Tags 7-13 are reserved for collectors a bench or test attaches; with none
// attached, a Process drops them like any undecodable message. A process
// that honoured them would let any peer, with no coordinator, send a
// GtStart then a GtFinish that deletes a confirmed scion, and its next LGC
// would reclaim the object while the holder still holds the reference.
TEST(ReservedTags, DroppedWithoutHandler) {
  Runtime rt(2, sim::manual_config(9));
  Process& holder = rt.proc(0);
  Process& owner = rt.proc(1);
  const ObjectSeq h = holder.create_object();
  holder.add_root(h);
  const ObjectSeq x = owner.create_object();
  const RefId ref = rt.link(ObjectId{0, h}, ObjectId{1, x});
  holder.run_lgc();  // its NewSetStubs lists ref: the scion is confirmed
  rt.run_for(50'000);
  ASSERT_TRUE(owner.scions().find(ref)->confirmed);

  const auto envelope = [](std::uint8_t tag, std::vector<std::uint64_t> words) {
    ByteWriter w;
    w.u8(tag);
    for (std::uint64_t v : words) w.u64(v);
    Envelope e;
    e.src = 0;
    e.dst = 1;
    e.bytes = w.take();
    return e;
  };
  owner.deliver(envelope(9, {/*epoch=*/1, /*epoch_start=*/rt.now() + 1}));  // GtStart
  owner.deliver(envelope(13, {/*epoch=*/1}));                                // GtFinish
  owner.run_lgc();
  EXPECT_TRUE(owner.scions().contains(ref));
  EXPECT_TRUE(owner.heap().exists(x));
}

// NewSetStubs follow listing changes: an LGC sends a contact its listing
// only when it changed since the last one sent there, or when that one is
// a grace period old (10 ms under manual_config).
class NssListing : public ::testing::Test {
 protected:
  NssListing() : rt(2, sim::manual_config(13)) {
    h = rt.proc(0).create_object();
    rt.proc(0).add_root(h);
    x = rt.proc(1).create_object();
    ref = rt.link(ObjectId{0, h}, ObjectId{1, x});
    EXPECT_EQ(lgc(), 1u) << "a new contact gets its first listing";
  }

  std::uint64_t sent() { return rt.proc(0).metrics().new_set_stubs_sent.get(); }

  /// Runs the holder's LGC, lets 1 ms pass and returns the NSS it sent.
  std::uint64_t lgc() {
    const std::uint64_t before = sent();
    rt.proc(0).run_lgc();
    rt.run_for(1'000);
    return sent() - before;
  }

  Runtime rt;
  ObjectSeq h = kNoObject;
  ObjectSeq x = kNoObject;
  RefId ref = kNoRef;
};

TEST_F(NssListing, UnchangedListingSendsNothing) {
  const Counter& unchanged = rt.proc(0).metrics().new_set_stubs_unchanged;
  EXPECT_EQ(unchanged.get(), 0u);
  EXPECT_EQ(lgc(), 0u);
  EXPECT_EQ(lgc(), 0u);
  EXPECT_EQ(unchanged.get(), 2u);
}

TEST_F(NssListing, AddedOrRemovedStubSendsOnNextLgc) {
  const ObjectSeq y = rt.proc(1).create_object();
  const RefId ref2 = rt.link(ObjectId{0, h}, ObjectId{1, y});
  EXPECT_EQ(lgc(), 1u) << "a stub was added";
  EXPECT_TRUE(rt.proc(1).scions().find(ref2)->confirmed);

  rt.proc(0).remove_remote_ref(h, ref);
  EXPECT_EQ(lgc(), 1u) << "a stub was removed";
  EXPECT_FALSE(rt.proc(1).scions().contains(ref));

  rt.proc(0).remove_remote_ref(h, ref2);
  EXPECT_EQ(lgc(), 1u) << "the empty listing after the last stub goes";
  EXPECT_EQ(rt.proc(1).scions().size(), 0u);
}

TEST_F(NssListing, UnchangedListingRefreshedOnceGraceOld) {
  rt.run_for(rt.config().proc.scion_pending_grace_us);
  EXPECT_EQ(lgc(), 1u);
  EXPECT_EQ(lgc(), 0u) << "the refresh restarts the clock";
}

TEST_F(NssListing, SolicitAnsweredAtOnceAndRestartsTheClock) {
  const SimTime grace = rt.config().proc.scion_pending_grace_us;
  rt.run_for(grace / 2);
  Envelope solicit;
  solicit.src = 1;
  solicit.dst = 0;
  solicit.bytes = encode_message(NssSolicitMsg{});
  const std::uint64_t before = sent();
  rt.proc(0).deliver(solicit);
  EXPECT_EQ(sent(), before + 1) << "answered at once, listing unchanged";
  // The LGC's listing is now a grace old; the answer is not.
  rt.run_for(grace / 2 + 1'000);
  EXPECT_EQ(lgc(), 0u);
}

// A quiet live ring lists each stub once, then refreshes it once a grace
// period. One NSS per contact per LGC would be about 6,000 here.
TEST(NssListingRing, QuiescentRingSendsOnlyRefreshes) {
  Runtime rt(3, sim::fast_config(17));
  sim::build_ring(rt, 3, 1);
  const SimTime span = 10'000'000;
  rt.run_for(span);
  EXPECT_EQ(sim::global_stats(rt).live_objects, 4u);
  const SimTime grace = rt.config().proc.scion_pending_grace_us;
  EXPECT_LE(rt.total_metrics().new_set_stubs_sent.get(), 3 * (span / grace + 2));
}

TEST_F(Rmi, NoReplyModeBumpsOnce) {
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kTouch, {}, /*want_reply=*/false);
  rt.run_for(50'000);
  EXPECT_EQ(rt.proc(0).stubs().find(a_to_b)->ic, 1u);
  EXPECT_EQ(rt.proc(1).scions().find(a_to_b)->ic, 1u);
  EXPECT_EQ(rt.total_metrics().replies_sent.get(), 0u);
}

TEST_F(Rmi, PinAndUnpinRootEffects) {
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kPinRoot);
  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).heap().is_root(b.seq));
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kUnpinRoot);
  rt.run_for(50'000);
  EXPECT_FALSE(rt.proc(1).heap().is_root(b.seq));
}

TEST_F(Rmi, ExportOwnObjectCreatesScionEagerly) {
  // a invokes b, passing a fresh object of P0 as argument.
  const ObjectSeq arg = rt.proc(0).create_object();
  rt.proc(0).add_root(arg);  // keep it alive at the source
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kStoreArgs, {ArgRef::own(arg)});
  // Scion exists at P0 immediately (before any message flows).
  bool found = false;
  for (const auto& [ref, sc] : rt.proc(0).scions()) {
    if (sc.target == arg && sc.holder == 1) found = true;
  }
  EXPECT_TRUE(found);

  rt.run_for(50'000);
  // b now holds a remote field to the exported object.
  const HeapObject* bo = rt.proc(1).heap().find(b.seq);
  ASSERT_EQ(bo->remote_fields.size(), 1u);
  const StubEntry* stub = rt.proc(1).stubs().find(bo->remote_fields[0]);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->target, (ObjectId{0, arg}));
}

TEST_F(Rmi, ThirdPartyExportRunsHandshake) {
  // a holds a ref to b and a ref to c; it passes the c-reference to b.
  const RefId a_to_c = rt.link(a, c);
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kStoreArgs, {ArgRef::held(a_to_c)});
  // The invocation is parked until C acks the AddScion.
  EXPECT_EQ(rt.proc(0).pending_exports(), 1u);
  rt.run_for(100'000);
  EXPECT_EQ(rt.proc(0).pending_exports(), 0u);

  // b now holds a new reference to c, and c has a scion for holder P1.
  const HeapObject* bo = rt.proc(1).heap().find(b.seq);
  ASSERT_EQ(bo->remote_fields.size(), 1u);
  const RefId new_ref = bo->remote_fields[0];
  EXPECT_NE(new_ref, a_to_c);  // fresh reference identity
  const ScionEntry* sc = rt.proc(2).scions().find(new_ref);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->holder, 1u);
  EXPECT_EQ(sc->target, c.seq);
  EXPECT_EQ(rt.total_metrics().add_scion_sent.get(), 1u);
}

TEST_F(Rmi, ThirdPartyExportToTargetOwnerBecomesLocal) {
  // a passes its b-reference TO b itself: b should get a local self-field.
  const RefId another = rt.link(a, b);  // second ref a→b
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kStoreArgs, {ArgRef::held(another)});
  rt.run_for(50'000);
  const HeapObject* bo = rt.proc(1).heap().find(b.seq);
  ASSERT_EQ(bo->local_fields.size(), 1u);
  EXPECT_EQ(bo->local_fields[0], b.seq);
  EXPECT_TRUE(bo->remote_fields.empty());
  // No handshake was needed.
  EXPECT_EQ(rt.total_metrics().add_scion_sent.get(), 0u);
}

TEST_F(Rmi, HandshakePinsStubAgainstLgc) {
  const RefId a_to_c = rt.link(a, c);
  // Block the link to C so the AddScion can't be delivered yet.
  rt.network().set_link_blocked(0, 2, true);
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kStoreArgs, {ArgRef::held(a_to_c)});
  // The mutator immediately drops its own reference to c.
  rt.proc(0).remove_remote_ref(a.seq, a_to_c);
  rt.proc(0).run_lgc();
  // The stub must survive: it is pinned by the in-flight export.
  EXPECT_TRUE(rt.proc(0).stubs().contains(a_to_c));

  rt.network().set_link_blocked(0, 2, false);
  rt.run_for(200'000);  // retries go through, handshake completes
  EXPECT_EQ(rt.proc(0).pending_exports(), 0u);
  rt.proc(0).run_lgc();
  EXPECT_FALSE(rt.proc(0).stubs().contains(a_to_c));  // unpinned, unheld

  // b's imported reference keeps c alive even though a dropped everything.
  rt.run_for(100'000);
  for (ProcessId pid = 0; pid < 3; ++pid) rt.proc(pid).run_lgc();
  rt.run_for(100'000);
  EXPECT_TRUE(rt.proc(2).heap().exists(c.seq));
  const HeapObject* bo = rt.proc(1).heap().find(b.seq);
  ASSERT_EQ(bo->remote_fields.size(), 1u);
}

TEST_F(Rmi, DropFieldsEffect) {
  const ObjectSeq extra = rt.proc(1).create_object();
  rt.proc(1).add_local_ref(b.seq, extra);
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kDropFields);
  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).heap().find(b.seq)->local_fields.empty());
}

TEST_F(Rmi, InvokeUnknownRefThrows) {
  EXPECT_THROW(rt.proc(0).invoke(a.seq, make_ref_id(9, 9), InvokeEffect::kTouch),
               std::invalid_argument);
}

TEST_F(Rmi, InvocationForCollectedScionDropped) {
  // Forcefully delete the scion, then invoke: the receiver must drop it and
  // never resurrect the object.
  const_cast<ScionTable&>(rt.proc(1).scions()).erase(a_to_b);
  rt.proc(0).invoke(a.seq, a_to_b, InvokeEffect::kTouch);
  rt.run_for(50'000);
  EXPECT_EQ(rt.total_metrics().invocations_dropped.get(), 1u);
}

TEST(RmiDgcOff, NoDgcBookkeeping) {
  RuntimeConfig cfg = sim::manual_config(72);
  cfg.proc.dgc_enabled = false;
  cfg.proc.dcda_enabled = false;
  Runtime rt(2, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.proc(1).add_root(b.seq);

  const RefId ref = rt.link(a, b);
  // No scion was created.
  EXPECT_EQ(rt.proc(1).scions().size(), 0u);
  // Invocations still work (the message carries the endpoint id).
  rt.proc(0).invoke(a.seq, ref, InvokeEffect::kPinRoot);
  rt.run_for(50'000);
  EXPECT_TRUE(rt.proc(1).heap().is_root(b.seq));
  // No counters maintained.
  EXPECT_EQ(rt.proc(0).stubs().find(ref)->ic, 0u);
  // LGC never emits NewSetStubs.
  rt.proc(0).run_lgc();
  rt.run_for(50'000);
  EXPECT_EQ(rt.total_metrics().new_set_stubs_sent.get(), 0u);
}

}  // namespace
}  // namespace adgc
