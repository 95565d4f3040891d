// Wire protocol of the distributed runtime.
//
// Every inter-process interaction is one of the payload structs below,
// wrapped in an Envelope. Payloads are always round-tripped through the
// binary codec (encode at send, decode at delivery) so byte counts are real
// and codec bugs cannot hide behind in-memory shortcuts.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"

namespace adgc {

/// A reference being exported inside an invocation: the exporter has already
/// secured a scion for `ref` at `target.owner` (scion-first handshake), so
/// the importer may install a stub immediately.
struct ExportedRef {
  RefId ref = kNoRef;
  ObjectId target;

  friend bool operator==(const ExportedRef&, const ExportedRef&) = default;
};

/// What a remote invocation does at the callee. Real systems run arbitrary
/// code; the reproduction needs only the reachability-relevant effects.
enum class InvokeEffect : std::uint8_t {
  kTouch = 0,      // plain call: bumps invocation counters, nothing else
  kPinRoot = 1,    // callee adds the invoked object to its local roots
  kUnpinRoot = 2,  // callee removes the invoked object from its local roots
  kStoreArgs = 3,  // callee stores the exported arg references in the object
  kDropFields = 4, // callee clears the invoked object's outgoing references
};

/// Remote method invocation through the remote reference `ref`.
struct InvokeMsg {
  RefId ref = kNoRef;     // reference invoked through (stub at caller)
  std::uint64_t ic = 0;   // piggy-backed invocation counter (post-increment)
  ObjectId target;        // invoked object (the proxy's endpoint id)
  ObjectId caller;        // invoking object (diagnostics)
  InvokeEffect effect = InvokeEffect::kTouch;
  std::vector<ExportedRef> args;
  /// Marshalled by-value argument data (what real remoting spends most of
  /// its wire bytes on); opaque to the runtime.
  std::vector<std::byte> payload;
  bool want_reply = true;
  std::uint64_t call_id = 0;

  friend bool operator==(const InvokeMsg&, const InvokeMsg&) = default;
};

/// Reply to an invocation; also bumps the reference's invocation counters.
struct ReplyMsg {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;
  std::uint64_t call_id = 0;

  friend bool operator==(const ReplyMsg&, const ReplyMsg&) = default;
};

/// Reference-listing message: the complete set of live stubs the sender
/// holds toward the receiver, stamped with the sender's export sequence so
/// references exported after the sender's LGC ran are not collected. On the
/// wire `live` is its maximal runs of consecutive RefIds, so it decodes
/// strictly ascending; a `live` built out of order is sent as its sorted set.
struct NewSetStubsMsg {
  std::uint64_t export_seq = 0;
  std::vector<RefId> live;

  friend bool operator==(const NewSetStubsMsg&, const NewSetStubsMsg&) = default;
};

/// Scion-first handshake: ask the owner of `target` to create a scion for a
/// reference about to be handed to `holder`. Idempotent; retried until acked.
struct AddScionMsg {
  RefId ref = kNoRef;
  ObjectSeq target_seq = kNoObject;
  ProcessId holder = kNoProcess;
  std::uint64_t handshake = 0;

  friend bool operator==(const AddScionMsg&, const AddScionMsg&) = default;
};

struct AddScionAckMsg {
  RefId ref = kNoRef;
  std::uint64_t handshake = 0;

  friend bool operator==(const AddScionAckMsg&, const AddScionAckMsg&) = default;
};

/// One element of a CDM algebra set: a remote reference plus the invocation
/// counter it had in the snapshot that contributed it.
struct AlgebraElem {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;

  friend bool operator==(const AlgebraElem&, const AlgebraElem&) = default;
  friend auto operator<=>(const AlgebraElem&, const AlgebraElem&) = default;
};

/// Cycle Detection Message. `via` is the reference whose stub the CDM was
/// forwarded along; delivery is to the scion of the same RefId.
struct CdmMsg {
  DetectionId detection;
  RefId candidate = kNoRef;   // candidate scion at the initiator
  RefId via = kNoRef;
  std::uint64_t via_ic = 0;   // the stub's IC in the sender's snapshot
  std::uint32_t hops = 0;
  /// Strictly ascending by ref: the wire carries the gaps between refs, and
  /// encoding a set that is not throws std::invalid_argument.
  std::vector<AlgebraElem> source;  // dependencies (scions)
  std::vector<AlgebraElem> target;  // traversed stubs

  friend bool operator==(const CdmMsg&, const CdmMsg&) = default;
};

/// A coalesced per-peer batch of control messages (CDMs, NewSetStubs,
/// AddScion acks). Items are complete encoded MessagePayloads, each carried
/// behind a u32 length prefix; a batch may never contain another batch.
/// The whole batch shares one Envelope — one incarnation stamp pair, one
/// frame header, one CRC, one write() — and is applied or dropped as a unit:
/// any undecodable item poisons the entire batch (see decode_batch_items).
struct BatchMsg {
  std::vector<std::vector<std::byte>> items;

  friend bool operator==(const BatchMsg&, const BatchMsg&) = default;
};

/// Permanent-failure rejection: the receiver has committed the sender's
/// `evicted_incarnation` dead (eviction tombstone) and refuses its traffic.
/// The only valid reaction is to stop and restart under a fresh incarnation,
/// re-exporting references through the normal AddScion handshake — which is
/// exactly the crash/restart path the system already tolerates, so a false
/// eviction (partition misdiagnosed as death) degrades to a forced restart,
/// never to a dangling reference. A NACK is never answered with a NACK.
struct EvictedNackMsg {
  Incarnation evicted_incarnation = 0;

  friend bool operator==(const EvictedNackMsg&, const EvictedNackMsg&) = default;
};

/// Lease probe from an owner to a scion holder that has been silent past
/// `peer_death_timeout`: "send me your NewSetStubs now". A live holder
/// answers unconditionally — an empty set is the answer that lets the owner
/// expire scions the holder no longer (or never) backs, e.g. after the
/// holder restarted from a snapshot predating the stub. A dead holder
/// leaves the solicit unanswered, which feeds the suspicion escalation
/// toward eviction. Either way scions only ever die through a holder-
/// asserted NewSetStubs or a committed eviction — never on silence alone.
struct NssSolicitMsg {
  friend bool operator==(const NssSolicitMsg&, const NssSolicitMsg&) = default;
};

using MessagePayload =
    std::variant<InvokeMsg, ReplyMsg, NewSetStubsMsg, AddScionMsg, AddScionAckMsg,
                 CdmMsg, BatchMsg, EvictedNackMsg, NssSolicitMsg>;

/// On-wire type tag: the first byte of encode_message() output. Exposed so
/// transport-level code (the TCP write queue's priority shedding) can
/// classify an already-encoded message without paying a full decode.
enum class MessageTag : std::uint8_t {
  kInvoke = 1,
  kReply = 2,
  kNewSetStubs = 3,
  kAddScion = 4,
  kAddScionAck = 5,
  kCdm = 6,
  kBatch = 14,
  kEvictedNack = 15,
  kNssSolicit = 16,
};

/// Tags left free for message kinds a bench or test attaches (the §5
/// comparison collectors, src/baseline): Process::deliver hands them to its
/// reserved handler, and decode_message rejects them as unknown.
struct TagRange {
  std::uint8_t first;
  std::uint8_t last;
  constexpr bool contains(std::uint8_t tag) const { return tag >= first && tag <= last; }
};
inline constexpr TagRange kReservedTags{7, 13};

/// A message in flight.
///
/// Incarnation stamps implement the crash/restart fault model: `src_inc` is
/// the sender's incarnation at send time, `dst_inc` the sender's view (from
/// the runtime's membership table) of the destination's incarnation. The
/// delivery path drops any envelope whose stamps no longer match the current
/// incarnations — a message from a dead incarnation reflects state that was
/// rolled back by the restart and must not be applied; one addressed to a
/// dead incarnation may reference identifiers the restarted process never
/// knew. Dropping is always safe: the protocols are message-loss tolerant.
struct Envelope {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Incarnation src_inc = 0;
  Incarnation dst_inc = 0;
  std::vector<std::byte> bytes;  // encoded MessagePayload
};

/// Refs the decoder may produce from one frame: a data frame's message, or
/// every item of a batch together (a CDM element counts two, for its ref and
/// its IC). Run-coded listings expand when decoded; the budget is charged
/// before any vector grows, so one frame never decodes to more reference
/// data than a frame of fixed-width refs could carry (kMaxFramePayload /
/// sizeof(RefId), checked in frame.h). Past it, decoding throws DecodeError.
inline constexpr std::uint64_t kMaxDecodedRefs = std::uint64_t{8} << 20;

/// Encodes a payload (type tag + body).
std::vector<std::byte> encode_message(const MessagePayload& m);

/// Bytes encode_message(msg) produces, counted without writing them.
std::size_t encoded_size(const CdmMsg& msg);

/// Appends the encoding of `m` to an existing writer. The batch encoder uses
/// this to serialize message bodies directly into one contiguous arena
/// buffer instead of paying one allocation per queued message.
void encode_message_into(ByteWriter& w, const MessagePayload& m);

/// Decodes; throws DecodeError on malformed input.
MessagePayload decode_message(std::span<const std::byte> bytes);

/// Decodes every item of a batch under one kMaxDecodedRefs budget. Throws
/// DecodeError if ANY item is malformed, is itself a batch or overdraws the
/// budget — the receiver must then drop the whole batch (batch-level
/// poisoning: a batch is applied as a unit or not at all, so a corrupt slice
/// can never apply a prefix of its messages).
std::vector<MessagePayload> decode_batch_items(const BatchMsg& batch);

/// Short human-readable tag for logging ("Invoke", "Cdm", ...).
const char* message_kind(const MessagePayload& m);

}  // namespace adgc
