#include "src/baseline/baselines.h"

#include "src/common/log.h"

namespace adgc {

Baselines::Baselines(Runtime& rt) {
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    Attached& a = *procs_.emplace_back(std::make_unique<Attached>(rt.proc(pid), counters_));
    rt.proc(pid).set_reserved_handler(
        [&a](ProcessId src, std::span<const std::byte> bytes) { a.deliver(src, bytes); });
  }
}

void Baselines::Attached::deliver(ProcessId src, std::span<const std::byte> bytes) {
  try {
    switch (static_cast<std::uint8_t>(bytes[0])) {
      case BacktraceRequestMsg::kTag:
        return backtracer.on_request(src, decode_baseline<BacktraceRequestMsg>(bytes));
      case BacktraceReplyMsg::kTag:
        return backtracer.on_reply(src, decode_baseline<BacktraceReplyMsg>(bytes));
      case GtStartMsg::kTag: return gtrace.on_start(src, decode_baseline<GtStartMsg>(bytes));
      case GtMarkMsg::kTag: return gtrace.on_mark(src, decode_baseline<GtMarkMsg>(bytes));
      case GtPollMsg::kTag: return gtrace.on_poll(src, decode_baseline<GtPollMsg>(bytes));
      case GtStatusMsg::kTag: return gtrace.on_status(src, decode_baseline<GtStatusMsg>(bytes));
      case GtFinishMsg::kTag: return gtrace.on_finish(src, decode_baseline<GtFinishMsg>(bytes));
    }
  } catch (const DecodeError& e) {
    ADGC_ERROR("undecodable baseline message from " << src << ": " << e.what());
  }
}

}  // namespace adgc
