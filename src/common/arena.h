// Buffer arena backing the batch encode path.
//
// A flush-oriented pool of byte buffers: acquire() hands out a cleared
// vector whose capacity is pre-reserved to the high-water mark of past
// batches, so serializing a whole batch into one contiguous buffer performs
// (amortized) zero reallocations; release() returns a buffer — capacity
// intact — for reuse when a batch is discarded instead of sent (peer crash,
// drain of an empty queue). Buffers that leave through the transport are
// simply not returned; the arena then only provides the sizing hint, which
// is still the bulk of the win over a default-constructed writer.
//
// Single-threaded by design: one arena per Process, used only from that
// process's execution context (the Process is an actor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adgc {

class BufferArena {
 public:
  /// `initial_reserve` seeds the capacity hint before any batch has been
  /// observed; `max_pooled` bounds the free list (crash bursts can return
  /// many buffers at once — keep a few, drop the rest).
  explicit BufferArena(std::size_t initial_reserve = 1024,
                       std::size_t max_pooled = 8)
      : reserve_hint_(initial_reserve), max_pooled_(max_pooled) {}

  /// A cleared buffer with capacity >= the largest buffer seen so far.
  std::vector<std::byte> acquire() {
    ++acquires_;
    if (!free_.empty()) {
      ++reuses_;
      std::vector<std::byte> buf = std::move(free_.back());
      free_.pop_back();
      buf.clear();
      if (buf.capacity() < reserve_hint_) buf.reserve(reserve_hint_);
      return buf;
    }
    std::vector<std::byte> buf;
    buf.reserve(reserve_hint_);
    return buf;
  }

  /// Returns a buffer to the pool and folds its capacity into the sizing
  /// hint. Call with the buffer of an abandoned batch; buffers handed to the
  /// transport never come back, which is fine.
  void release(std::vector<std::byte> buf) {
    note_capacity(buf.capacity());
    if (free_.size() < max_pooled_) free_.push_back(std::move(buf));
  }

  /// Folds an observed final batch size into the hint without pooling the
  /// buffer (the sent-batch path: the buffer itself is gone downstream).
  void note_capacity(std::size_t cap) {
    if (cap > reserve_hint_) reserve_hint_ = cap;
  }

  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  std::vector<std::vector<std::byte>> free_;
  std::size_t reserve_hint_;
  std::size_t max_pooled_;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace adgc
