// libFuzzer harness over the wire-message codec (the ByteReader path every
// network byte takes before reaching a Process). The contract under fuzzing:
// any input either decodes to a well-formed payload — which must then
// re-encode without throwing, and a NewSetStubs or CDM to the very input
// bytes, their encodings being canonical — or throws DecodeError. Crashes,
// hangs, sanitizer reports and allocations past kMaxDecodedRefs are bugs.
//
// Built as a real libFuzzer target under Clang (-fsanitize=fuzzer); under
// other compilers the same body is linked against the corpus replay driver
// (replay_driver.cpp) so the harness logic runs everywhere.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/net/message.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::byte> bytes(reinterpret_cast<const std::byte*>(data), size);
  try {
    const adgc::MessagePayload m = adgc::decode_message(bytes);
    // Decoded → the payload must be internally consistent enough to encode.
    const std::vector<std::byte> re = adgc::encode_message(m);
    if (std::holds_alternative<adgc::NewSetStubsMsg>(m) ||
        std::holds_alternative<adgc::CdmMsg>(m)) {
      if (!std::ranges::equal(re, bytes)) __builtin_trap();
    }
  } catch (const adgc::DecodeError&) {
    // The expected outcome for almost all inputs.
  }
  return 0;
}
