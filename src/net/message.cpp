#include "src/net/message.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace adgc {

namespace {

// The canonical tag values live in message.h (MessageTag) so the transport
// can peek them; this alias keeps the codec bodies unchanged.
using Tag = MessageTag;

constexpr std::uint64_t kMaxU64 = ~std::uint64_t{0};

/// What one frame may still decode: see kMaxDecodedRefs.
class RefBudget {
 public:
  void take(std::uint64_t n) {
    if (n > left_) throw DecodeError(kOverdrawn);
    left_ -= n;
  }
  /// Charges the run first..last, whose length may not fit a u64.
  void take_run(RefId first, RefId last) {
    if (last - first >= left_) throw DecodeError(kOverdrawn);
    left_ -= last - first + 1;
  }

 private:
  static constexpr const char* kOverdrawn = "frame decodes to more refs than its budget";

  std::uint64_t left_ = kMaxDecodedRefs;
};

// A NewSetStubs listing is written as its maximal runs of consecutive
// RefIds: a varint run count, then per run a varint gap and a varint length
// minus one. The first run's gap is its first ref; a later run's is how far
// its first ref lies past the previous run's last ref + 2 (maximal runs
// leave at least one ref between them). Any decoded listing is therefore
// strictly ascending, and each listing has exactly one encoding.

/// Calls fn(first, last) for each maximal run of the ascending `refs`.
template <typename Fn>
void for_each_run(const std::vector<RefId>& refs, Fn&& fn) {
  for (std::size_t i = 0; i < refs.size();) {
    std::size_t j = i;
    while (j + 1 < refs.size() && refs[j + 1] == refs[j] + 1) ++j;
    fn(refs[i], refs[j]);
    i = j + 1;
  }
}

void put_runs(ByteWriter& w, const std::vector<RefId>& refs) {
  std::uint64_t runs = 0;
  for_each_run(refs, [&](RefId, RefId) { ++runs; });
  w.varint(runs);
  std::optional<RefId> prev;
  for_each_run(refs, [&](RefId first, RefId last) {
    w.varint(prev ? first - *prev - 2 : first);
    w.varint(last - first);
    prev = last;
  });
}

void put_listing(ByteWriter& w, const std::vector<RefId>& live) {
  if (std::ranges::adjacent_find(live, std::greater_equal<>{}) == live.end()) {
    put_runs(w, live);  // production listings come in stub-table order
    return;
  }
  std::vector<RefId> set = live;
  std::ranges::sort(set);
  set.erase(std::unique(set.begin(), set.end()), set.end());
  put_runs(w, set);
}

/// Reads `runs` runs, checking each against u64 overflow, and calls
/// fn(first, last) for each.
template <typename Fn>
void read_runs(ByteReader& r, std::uint64_t runs, Fn&& fn) {
  std::optional<RefId> prev;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t gap = r.varint();
    if (prev && (*prev > kMaxU64 - 2 || gap > kMaxU64 - 2 - *prev)) {
      throw DecodeError("listing gap overflows u64");
    }
    const RefId first = prev ? *prev + 2 + gap : gap;
    const std::uint64_t extra = r.varint();
    if (extra > kMaxU64 - first) throw DecodeError("listing run overflows u64");
    prev = first + extra;
    fn(first, *prev);
  }
}

std::vector<RefId> get_listing(ByteReader& r, RefBudget& budget) {
  const std::uint64_t runs = r.varint_count(2);  // a run is two varints
  // The first pass validates the runs and charges the budget, so the vector
  // is sized once, never past the budget; the second expands them.
  ByteReader scan = r;
  std::uint64_t total = 0;
  read_runs(scan, runs, [&](RefId first, RefId last) {
    budget.take_run(first, last);
    total += last - first + 1;
  });
  std::vector<RefId> live(total);
  auto out = live.begin();
  read_runs(r, runs, [&](RefId first, RefId last) {
    const auto n = static_cast<std::ptrdiff_t>(last - first + 1);
    std::iota(out, out + n, first);
    out += n;
  });
  return live;
}

// A CDM algebra set is a varint count, then per element the varint gap from
// the previous element's ref + 1 (the first element: its ref) and the varint
// IC; decoded sets are strictly ascending by construction.

/// Counts what a ByteWriter would append, writing nothing.
struct SizeCounter {
  std::size_t n = 0;
  void u8(std::uint8_t) { ++n; }
  void varint(std::uint64_t v) { n += varint_size(v); }
};

void check_ascending(const std::vector<AlgebraElem>& v) {
  // Two elements of one ref are a conflict, not a duplicate to drop.
  const auto not_above = [](const AlgebraElem& a, const AlgebraElem& b) {
    return a.ref >= b.ref;
  };
  if (std::ranges::adjacent_find(v, not_above) != v.end()) {
    throw std::invalid_argument("CDM algebra set not strictly ascending by ref");
  }
}

template <typename Sink>
void put_elems(Sink& w, const std::vector<AlgebraElem>& v) {
  w.varint(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    w.varint(i == 0 ? v[i].ref : v[i].ref - v[i - 1].ref - 1);
    w.varint(v[i].ic);
  }
}

template <typename Sink>
void put_cdm(Sink& w, const CdmMsg& m) {
  check_ascending(m.source);  // before anything is written
  check_ascending(m.target);
  w.u8(static_cast<std::uint8_t>(Tag::kCdm));
  w.varint(m.detection.initiator);
  w.varint(m.detection.seq);
  w.varint(m.candidate);
  w.varint(m.via);
  w.varint(m.via_ic);
  w.varint(m.hops);
  put_elems(w, m.source);
  put_elems(w, m.target);
}

std::vector<AlgebraElem> get_elems(ByteReader& r, RefBudget& budget) {
  const std::uint64_t n = r.varint_count(2);  // an element is two varints
  budget.take(2 * n);
  std::vector<AlgebraElem> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t gap = r.varint();
    if (i > 0 && (v[i - 1].ref == kMaxU64 || gap > kMaxU64 - 1 - v[i - 1].ref)) {
      throw DecodeError("algebra gap overflows u64");
    }
    v[i].ref = i > 0 ? v[i - 1].ref + 1 + gap : gap;
    v[i].ic = r.varint();
  }
  return v;
}

struct Encoder {
  ByteWriter& w;

  void operator()(const InvokeMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kInvoke));
    w.u64(m.ref);
    w.u64(m.ic);
    w.object_id(m.target);
    w.object_id(m.caller);
    w.u8(static_cast<std::uint8_t>(m.effect));
    w.u32(static_cast<std::uint32_t>(m.args.size()));
    for (const auto& a : m.args) {
      w.u64(a.ref);
      w.object_id(a.target);
    }
    w.bytes(m.payload);
    w.boolean(m.want_reply);
    w.u64(m.call_id);
  }

  void operator()(const ReplyMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kReply));
    w.u64(m.ref);
    w.u64(m.ic);
    w.u64(m.call_id);
  }

  void operator()(const NewSetStubsMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kNewSetStubs));
    w.u64(m.export_seq);
    put_listing(w, m.live);
  }

  void operator()(const AddScionMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kAddScion));
    w.u64(m.ref);
    w.u64(m.target_seq);
    w.u32(m.holder);
    w.u64(m.handshake);
  }

  void operator()(const AddScionAckMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kAddScionAck));
    w.u64(m.ref);
    w.u64(m.handshake);
  }

  void operator()(const CdmMsg& m) { put_cdm(w, m); }

  void operator()(const BatchMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kBatch));
    w.u32(static_cast<std::uint32_t>(m.items.size()));
    for (const auto& item : m.items) {
      w.u32(static_cast<std::uint32_t>(item.size()));
      w.raw(item.data(), item.size());
    }
  }

  void operator()(const EvictedNackMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kEvictedNack));
    w.u32(m.evicted_incarnation);
  }

  void operator()(const NssSolicitMsg&) {
    w.u8(static_cast<std::uint8_t>(Tag::kNssSolicit));
  }
};

}  // namespace

std::vector<std::byte> encode_message(const MessagePayload& m) {
  ByteWriter w;
  std::visit(Encoder{w}, m);
  return w.take();
}

void encode_message_into(ByteWriter& w, const MessagePayload& m) {
  std::visit(Encoder{w}, m);
}

std::size_t encoded_size(const CdmMsg& msg) {
  SizeCounter c;
  put_cdm(c, msg);
  return c.n;
}

namespace {

MessagePayload decode_one(std::span<const std::byte> bytes, RefBudget& budget) {
  ByteReader r(bytes);
  const auto tag = static_cast<Tag>(r.u8());
  switch (tag) {
    case Tag::kInvoke: {
      InvokeMsg m;
      m.ref = r.u64();
      m.ic = r.u64();
      m.target = r.object_id();
      m.caller = r.object_id();
      m.effect = static_cast<InvokeEffect>(r.u8());
      if (static_cast<std::uint8_t>(m.effect) > 4) throw DecodeError("bad invoke effect");
      const std::uint32_t n = r.u32();
      if (n > r.remaining() / 20) throw DecodeError("arg vector length too large");
      m.args.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        ExportedRef a;
        a.ref = r.u64();
        a.target = r.object_id();
        m.args.push_back(a);
      }
      m.payload = r.bytes();
      m.want_reply = r.boolean();
      m.call_id = r.u64();
      r.expect_done();
      return m;
    }
    case Tag::kReply: {
      ReplyMsg m;
      m.ref = r.u64();
      m.ic = r.u64();
      m.call_id = r.u64();
      r.expect_done();
      return m;
    }
    case Tag::kNewSetStubs: {
      NewSetStubsMsg m;
      m.export_seq = r.u64();
      m.live = get_listing(r, budget);
      r.expect_done();
      return m;
    }
    case Tag::kAddScion: {
      AddScionMsg m;
      m.ref = r.u64();
      m.target_seq = r.u64();
      m.holder = r.u32();
      m.handshake = r.u64();
      r.expect_done();
      return m;
    }
    case Tag::kAddScionAck: {
      AddScionAckMsg m;
      m.ref = r.u64();
      m.handshake = r.u64();
      r.expect_done();
      return m;
    }
    case Tag::kCdm: {
      CdmMsg m;
      m.detection.initiator = r.varint_u32();
      m.detection.seq = r.varint();
      m.candidate = r.varint();
      m.via = r.varint();
      m.via_ic = r.varint();
      m.hops = r.varint_u32();
      m.source = get_elems(r, budget);
      m.target = get_elems(r, budget);
      r.expect_done();
      return m;
    }
    case Tag::kBatch: {
      BatchMsg m;
      const std::uint32_t n = r.u32();
      if (n == 0) throw DecodeError("empty batch");
      // Each item costs at least its 4-byte length prefix plus a 1-byte tag.
      if (n > r.remaining() / 5) throw DecodeError("batch item count too large");
      m.items.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t len = r.u32();
        if (len == 0) throw DecodeError("empty batch item");
        if (len > r.remaining()) throw DecodeError("batch item length truncated");
        std::vector<std::byte> item = r.raw(len);
        if (item[0] == static_cast<std::byte>(Tag::kBatch)) {
          throw DecodeError("nested batch");
        }
        m.items.push_back(std::move(item));
      }
      r.expect_done();
      return m;
    }
    case Tag::kEvictedNack: {
      EvictedNackMsg m;
      m.evicted_incarnation = r.u32();
      r.expect_done();
      return m;
    }
    case Tag::kNssSolicit: {
      NssSolicitMsg m;
      r.expect_done();
      return m;
    }
  }
  throw DecodeError("unknown message tag");
}

}  // namespace

MessagePayload decode_message(std::span<const std::byte> bytes) {
  RefBudget budget;
  return decode_one(bytes, budget);
}

std::vector<MessagePayload> decode_batch_items(const BatchMsg& batch) {
  RefBudget budget;  // one frame: every item draws on it
  std::vector<MessagePayload> out;
  out.reserve(batch.items.size());
  for (const auto& item : batch.items) {
    MessagePayload m = decode_one(item, budget);
    if (std::holds_alternative<BatchMsg>(m)) throw DecodeError("nested batch");
    out.push_back(std::move(m));
  }
  return out;
}

const char* message_kind(const MessagePayload& m) {
  struct Kind {
    const char* operator()(const InvokeMsg&) const { return "Invoke"; }
    const char* operator()(const ReplyMsg&) const { return "Reply"; }
    const char* operator()(const NewSetStubsMsg&) const { return "NewSetStubs"; }
    const char* operator()(const AddScionMsg&) const { return "AddScion"; }
    const char* operator()(const AddScionAckMsg&) const { return "AddScionAck"; }
    const char* operator()(const CdmMsg&) const { return "Cdm"; }
    const char* operator()(const BatchMsg&) const { return "Batch"; }
    const char* operator()(const EvictedNackMsg&) const { return "EvictedNack"; }
    const char* operator()(const NssSolicitMsg&) const { return "NssSolicit"; }
  };
  return std::visit(Kind{}, m);
}

}  // namespace adgc
