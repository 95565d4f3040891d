#include "src/net/message.h"

namespace adgc {

namespace {

// The canonical tag values live in message.h (MessageTag) so the transport
// can peek them; this alias keeps the codec bodies unchanged.
using Tag = MessageTag;

void put_refs(ByteWriter& w, const std::vector<RefId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (RefId r : v) w.u64(r);
}

std::vector<RefId> get_refs(ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 8) throw DecodeError("ref vector length too large");
  std::vector<RefId> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

void put_elems(ByteWriter& w, const std::vector<AlgebraElem>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) {
    w.u64(e.ref);
    w.u64(e.ic);
  }
}

std::vector<AlgebraElem> get_elems(ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 16) throw DecodeError("algebra vector length too large");
  std::vector<AlgebraElem> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    AlgebraElem e;
    e.ref = r.u64();
    e.ic = r.u64();
    v.push_back(e);
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
    put_refs(w, m.live);
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

  void operator()(const CdmMsg& m) {
    w.u8(static_cast<std::uint8_t>(Tag::kCdm));
    w.detection_id(m.detection);
    w.u64(m.candidate);
    w.u64(m.via);
    w.u64(m.via_ic);
    w.u32(m.hops);
    put_elems(w, m.source);
    put_elems(w, m.target);
  }

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

MessagePayload decode_message(std::span<const std::byte> bytes) {
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
      m.live = get_refs(r);
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
      m.detection = r.detection_id();
      m.candidate = r.u64();
      m.via = r.u64();
      m.via_ic = r.u64();
      m.hops = r.u32();
      m.source = get_elems(r);
      m.target = get_elems(r);
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

std::vector<MessagePayload> decode_batch_items(const BatchMsg& batch) {
  std::vector<MessagePayload> out;
  out.reserve(batch.items.size());
  for (const auto& item : batch.items) {
    MessagePayload m = decode_message(item);
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
