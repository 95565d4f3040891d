#include "src/rt/heap.h"

#include <algorithm>
#include <stdexcept>

namespace adgc {

ObjectSeq Heap::allocate(std::size_t payload_bytes) {
  HeapObject obj;
  obj.seq = next_seq_++;
  obj.payload.assign(payload_bytes, std::byte{0});
  const ObjectSeq seq = obj.seq;
  place(std::move(obj));
  return seq;
}

void Heap::place(HeapObject obj) {
  Slot s = kNoSlot;
  if (free_.empty()) {
    s = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
    seqs_.push_back(kNoObject);
    colours_.push_back(0);
    rooted_.push_back(0);
  } else {
    s = free_.back();
    free_.pop_back();
  }
  index_.emplace(obj.seq, s);
  seqs_[s] = obj.seq;
  rooted_[s] = roots_.contains(obj.seq);
  slots_[s].obj = std::move(obj);
}

void Heap::add_root(ObjectSeq seq) {
  if (!roots_.insert(seq).second) return;
  if (const Slot s = slot_of(seq); s != kNoSlot) rooted_[s] = 1;
}

void Heap::remove_root(ObjectSeq seq) {
  if (roots_.erase(seq) == 0) return;
  if (const Slot s = slot_of(seq); s != kNoSlot) rooted_[s] = 0;
}

void Heap::adopt(HeapObject obj) {
  if (!adoptable_seq(obj.seq)) throw std::invalid_argument("adopt: object seq out of range");
  if (obj.seq >= next_seq_) next_seq_ = obj.seq + 1;
  if (SlotData* d = data(obj.seq)) {
    d->obj = std::move(obj);
    d->local_slots.clear();
    d->stubs.clear();
    return;
  }
  place(std::move(obj));
}

void Heap::set_next_seq_floor(ObjectSeq floor) {
  if (floor > next_seq_) next_seq_ = floor;
}

Slot Heap::slot_of(ObjectSeq seq) const {
  auto it = index_.find(seq);
  return it == index_.end() ? kNoSlot : it->second;
}

Heap::SlotData* Heap::data(ObjectSeq seq) {
  const Slot s = slot_of(seq);
  return s == kNoSlot ? nullptr : &slots_[s];
}

HeapObject* Heap::find(ObjectSeq seq) {
  SlotData* d = data(seq);
  return d ? &d->obj : nullptr;
}

const HeapObject* Heap::find(ObjectSeq seq) const {
  const Slot s = slot_of(seq);
  return s == kNoSlot ? nullptr : &slots_[s].obj;
}

void Heap::remove(ObjectSeq seq) {
  const Slot s = slot_of(seq);
  if (s != kNoSlot) free(s);
}

void Heap::free(Slot s) {
  index_.erase(seqs_[s]);
  slots_[s] = SlotData{};
  seqs_[s] = kNoObject;
  colours_[s] = 0;
  rooted_[s] = 0;
  free_.push_back(s);
}

std::span<std::uint32_t> Heap::stub_hints(Slot s) {
  SlotData& d = slots_[s];
  if (d.stubs.size() != d.obj.remote_fields.size()) {
    d.stubs.assign(d.obj.remote_fields.size(), kNoSlot);
  }
  return d.stubs;
}

void Heap::add_local_field(ObjectSeq from, ObjectSeq to) {
  SlotData* d = data(from);
  if (!d) throw std::invalid_argument("add_local_field: no such source object");
  const Slot t = slot_of(to);
  if (t == kNoSlot) throw std::invalid_argument("add_local_field: no such target object");
  if (d->local_slots.size() == d->obj.local_fields.size()) d->local_slots.push_back(t);
  d->obj.local_fields.push_back(to);
}

bool Heap::remove_local_field(ObjectSeq from, ObjectSeq to) {
  SlotData* d = data(from);
  if (!d) return false;
  std::vector<ObjectSeq>& fields = d->obj.local_fields;
  auto it = std::find(fields.begin(), fields.end(), to);
  if (it == fields.end()) return false;
  if (d->local_slots.size() == fields.size()) {
    d->local_slots.erase(d->local_slots.begin() + (it - fields.begin()));
  }
  fields.erase(it);
  return true;
}

void Heap::add_remote_field(ObjectSeq from, RefId ref) {
  SlotData* d = data(from);
  if (!d) throw std::invalid_argument("add_remote_field: no such source object");
  if (d->stubs.size() == d->obj.remote_fields.size()) d->stubs.push_back(kNoSlot);
  d->obj.remote_fields.push_back(ref);
}

bool Heap::remove_remote_field(ObjectSeq from, RefId ref) {
  SlotData* d = data(from);
  if (!d) return false;
  std::vector<RefId>& fields = d->obj.remote_fields;
  auto it = std::find(fields.begin(), fields.end(), ref);
  if (it == fields.end()) return false;
  if (d->stubs.size() == fields.size()) {
    d->stubs.erase(d->stubs.begin() + (it - fields.begin()));
  }
  fields.erase(it);
  return true;
}

}  // namespace adgc
