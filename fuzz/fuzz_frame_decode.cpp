// libFuzzer harness over the TCP frame decoder — the first parser any byte
// from the network hits. Contract under fuzzing: arbitrary input either
// yields well-formed frames (which must re-encode, and whose payloads are
// decoded as Process::deliver decodes them, batch items included) or
// poisons the decoder with a reported error. Crashes, hangs, unbounded
// allocations and sanitizer reports are bugs. After poisoning, next() must
// stay silent.
//
// The input's first byte selects a chunking pattern so the fuzzer exercises
// the incremental-feed state machine (header split across recv() calls,
// payload trickling in byte by byte), not just one-shot decodes.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/net/frame.h"

namespace {

void decode_payload(std::span<const std::byte> payload) {
  try {
    const adgc::MessagePayload m = adgc::decode_message(payload);
    if (const auto* batch = std::get_if<adgc::BatchMsg>(&m)) {
      (void)adgc::decode_batch_items(*batch);
    }
  } catch (const adgc::DecodeError&) {
    // Dropped by the receiver, as an undecodable message or poisoned batch.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::size_t chunk = std::size_t{1} << (data[0] % 13);  // 1..4096 bytes
  const std::span<const std::byte> bytes(reinterpret_cast<const std::byte*>(data + 1),
                                         size - 1);

  adgc::FrameDecoder dec;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    dec.feed(bytes.subspan(off, std::min(chunk, bytes.size() - off)));
    while (auto frame = dec.next()) {
      // A decoded frame must re-encode cleanly (header fields round-trip).
      (void)adgc::encode_frame(*frame);
      (void)adgc::peek_message_tag(frame->payload);
      (void)adgc::is_cdm_payload(frame->payload);
      (void)adgc::is_new_set_stubs_payload(frame->payload);
      if (frame->kind != adgc::FrameKind::kHello) decode_payload(frame->payload);
    }
    if (dec.failed()) {
      // Poisoned: the error must be described, and the decoder must stay
      // dead no matter what else is fed.
      (void)dec.error_detail();
      dec.feed(bytes.subspan(0, std::min<std::size_t>(bytes.size(), 64)));
      if (dec.next().has_value()) __builtin_trap();
      break;
    }
  }
  return 0;
}
