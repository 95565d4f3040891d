// Randomized equivalence of lgc::run with the oracle of tests/lgc_oracle.h.
//
// Each case drives a random sequence of heap and table operations —
// allocations, local and remote field edits, roots, scions, stubs and pinned
// stubs, removals behind the collector's back, fields edited through find(),
// adopted objects with incarnation-partitioned seqs far beyond the dense
// range, heap copies and capture → restore round trips — and checks every
// LGC against the oracle computed on the state just before it: the reclaimed
// set, the survivors' fields, the surviving stubs and target_root_reachable.
// Sweeps free slots that later allocations reuse, so stale cached slots are
// exercised too.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/snapshot/snapshot.h"
#include "tests/lgc_oracle.h"

namespace adgc {
namespace {

struct World {
  Heap heap;
  StubTable stubs;
  ScionTable scions;
  std::set<RefId> pinned;
};

class Driver {
 public:
  explicit Driver(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      step();
      if (::testing::Test::HasFailure()) return;
    }
  }

  std::size_t gcs() const { return gcs_; }
  std::size_t reclaimed() const { return reclaimed_; }

 private:
  /// A random live object's seq, or a seq no object has.
  ObjectSeq any_object() {
    std::vector<ObjectSeq> seqs;
    for (Slot s = 0; s < w_.heap.slot_end(); ++s) {
      if (const HeapObject* obj = w_.heap.at(s)) seqs.push_back(obj->seq);
    }
    if (seqs.empty() || rng_.chance(0.05)) return 900'000 + rng_.below(10);
    return seqs[rng_.below(seqs.size())];
  }
  RefId any_ref() { return make_ref_id(1 + rng_.below(3), 1 + rng_.below(24)); }

  void gc() {
    const LgcOutcome want = expected_lgc(w_.heap, w_.stubs, w_.scions, w_.pinned);
    const lgc::Result res = lgc::run(w_.heap, w_.stubs, w_.scions, w_.pinned, 0);
    const LgcOutcome got = observed_lgc(w_.heap, w_.stubs, w_.scions, res);
    EXPECT_TRUE(want == got) << "after step " << steps_ << ": "
                             << describe_difference(want, got);
    ++gcs_;
    reclaimed_ += res.objects_reclaimed;
  }

  void step() {
    ++steps_;
    Heap& h = w_.heap;
    switch (rng_.below(20)) {
      case 0:
      case 1:
      case 2: {
        const ObjectSeq a = h.allocate(rng_.below(3));
        if (rng_.chance(0.3)) h.add_root(a);
        break;
      }
      case 3:
      case 4: {
        const ObjectSeq from = any_object(), to = any_object();
        if (h.exists(from) && h.exists(to)) h.add_local_field(from, to);
        break;
      }
      case 5: {
        const ObjectSeq from = any_object();
        if (const HeapObject* obj = h.find(from); obj && !obj->local_fields.empty()) {
          h.remove_local_field(from, obj->local_fields[rng_.below(obj->local_fields.size())]);
        }
        break;
      }
      case 6: {
        const ObjectSeq from = any_object();
        const RefId ref = any_ref();
        if (!h.exists(from)) break;
        if (rng_.chance(0.8)) w_.stubs.ensure(ref, ObjectId{ref_id_creator(ref), 1});
        h.add_remote_field(from, ref);
        break;
      }
      case 7: {
        const ObjectSeq from = any_object();
        if (const HeapObject* obj = h.find(from); obj && !obj->remote_fields.empty()) {
          const auto& fields = obj->remote_fields;
          h.remove_remote_field(from, fields[rng_.below(fields.size())]);
        }
        break;
      }
      case 8:
        if (rng_.chance(0.5)) {
          h.add_root(any_object());
        } else if (!h.roots().empty()) {
          auto it = h.roots().begin();
          std::advance(it, static_cast<std::ptrdiff_t>(rng_.below(h.roots().size())));
          h.remove_root(*it);
        }
        break;
      case 9: {
        const RefId ref = make_ref_id(9, 1 + rng_.below(16));
        if (rng_.chance(0.6)) {
          w_.scions.ensure(ref, 9, any_object(), 0);
        } else {
          w_.scions.erase(ref);
        }
        break;
      }
      case 10: {
        const RefId ref = any_ref();
        if (rng_.chance(0.5)) {
          w_.stubs.ensure(ref, ObjectId{ref_id_creator(ref), 1});
        } else if (rng_.chance(0.5)) {
          w_.pinned.insert(ref);
        } else {
          w_.pinned.erase(ref);
        }
        break;
      }
      case 11: {
        // Adopt with an incarnation-partitioned seq, sometimes replacing a
        // live object, with fields to live, missing and future objects.
        const ObjectSeq base = (std::uint64_t{1 + rng_.below(3)} << 40) + 1;
        HeapObject obj;
        obj.seq = rng_.chance(0.2) ? any_object() : base + rng_.below(8);
        for (std::uint64_t k = rng_.below(3); k > 0; --k) {
          obj.local_fields.push_back(any_object());
        }
        if (rng_.chance(0.3)) obj.local_fields.push_back(base + rng_.below(8));
        if (rng_.chance(0.3)) obj.remote_fields.push_back(any_ref());
        if (rng_.chance(0.3)) h.add_root(obj.seq);  // rooted before it exists
        h.adopt(std::move(obj));
        break;
      }
      case 12:
        h.set_next_seq_floor((std::uint64_t{1 + rng_.below(3)} << 40) + 1 + rng_.below(4));
        break;
      case 13:
        // Behind the collector's back: the object goes, fields to it dangle.
        if (rng_.chance(0.3)) h.remove(any_object());
        break;
      case 14:
        // Fields edited through find(), as kDropFields does.
        if (HeapObject* obj = h.find(any_object()); obj && rng_.chance(0.5)) {
          obj->local_fields.clear();
          if (rng_.chance(0.5)) obj->remote_fields.clear();
        }
        break;
      case 15: {
        // Continue on a copy; the original must have stayed intact.
        World copy = w_;
        w_ = std::move(copy);
        break;
      }
      case 16: {
        // Capture and restore into fresh tables, as recovery does.
        const SnapshotData snap =
            capture_snapshot(0, 0, w_.heap, w_.stubs, w_.scions, rng_.chance(0.5));
        World restored;
        restore_snapshot(snap, restored.heap, restored.stubs, restored.scions, 0);
        restored.pinned = w_.pinned;
        for (Slot s = 0; s < w_.heap.slot_end(); ++s) {
          const HeapObject* obj = w_.heap.at(s);
          if (!obj) continue;
          const HeapObject* back = restored.heap.find(obj->seq);
          ASSERT_NE(back, nullptr) << obj->seq;
          EXPECT_EQ(back->remote_fields, obj->remote_fields);
          // A field to a removed object is not captured.
          std::vector<ObjectSeq> live_fields;
          for (ObjectSeq f : obj->local_fields) {
            if (w_.heap.exists(f)) live_fields.push_back(f);
          }
          EXPECT_EQ(back->local_fields, live_fields);
        }
        EXPECT_EQ(restored.heap.size(), w_.heap.size());
        w_ = std::move(restored);
        break;
      }
      default:
        gc();
        break;
    }
  }

  Rng rng_;
  World w_;
  std::size_t steps_ = 0;
  std::size_t gcs_ = 0;
  std::size_t reclaimed_ = 0;
};

class LgcEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LgcEquivalence, MatchesOracleAfterEveryRun) {
  Driver d(GetParam());
  d.run(3000);
  EXPECT_GT(d.gcs(), 100u);
  EXPECT_GT(d.reclaimed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LgcEquivalence, ::testing::Range<std::uint64_t>(1, 21));

TEST(LgcEquivalence, SlotReuseAfterSweepDoesNotResurrect) {
  // A swept object's slot is reused by a fresh one; nothing may reach the
  // newcomer through the old object's cached slot.
  World w;
  const ObjectSeq a = w.heap.allocate();
  const ObjectSeq b = w.heap.allocate();
  w.heap.add_root(a);
  w.heap.add_local_field(a, b);
  w.heap.remove(b);  // a's field now dangles
  const ObjectSeq c = w.heap.allocate();
  ASSERT_EQ(w.heap.slot_of(c), Slot{1});  // b's slot, reused
  const auto res = lgc::run(w.heap, w.stubs, w.scions, w.pinned, 0);
  EXPECT_EQ(res.objects_reclaimed, 1u);
  EXPECT_FALSE(w.heap.exists(c));
  EXPECT_TRUE(w.heap.exists(a));
}

TEST(LgcEquivalence, AdoptedFieldsResolveOnceTheirTargetArrives) {
  // Recovery adopts objects in file order: a field may name an object
  // adopted after it.
  World w;
  const ObjectSeq far = (std::uint64_t{3} << 40) + 5;
  w.heap.adopt({far, {far + 1}, {}, {}});
  w.heap.adopt({far + 1, {}, {}, {}});
  w.heap.add_root(far);
  const auto res = lgc::run(w.heap, w.stubs, w.scions, w.pinned, 0);
  EXPECT_EQ(res.objects_reclaimed, 0u);
  EXPECT_EQ(w.heap.allocate(), far + 2);
}

TEST(LgcEquivalence, HeapRejectsSeqsItCannotHold) {
  Heap h;
  EXPECT_THROW(h.adopt({kNoObject, {}, {}, {}}), std::invalid_argument);
  EXPECT_THROW(h.adopt({kNoObject - 1, {}, {}, {}}), std::invalid_argument);
  h.adopt({kNoObject - 2, {}, {}, {}});
  EXPECT_TRUE(h.exists(kNoObject - 2));
}

}  // namespace
}  // namespace adgc
