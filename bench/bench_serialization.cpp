// §4 serialization evaluation reproduction.
//
// Paper numbers:
//   Rotor (reflective serializer), 10k linked dummy objects:      26 037 ms
//   Rotor, same graph + one remote reference per object (10k stubs):
//                                                        45 125 ms (+73%)
//   Production .NET (OBIWAN reimplementation):            250-350 ms
//   → "serializing a remote reference is faster than serializing an
//      additional dummy object", and production serialization is ~100×
//      faster than Rotor's.
//
// Here: NaiveSerializer (reflective/text, models Rotor) vs BinarySerializer
// (bulk binary, models production .NET) on the same graph shapes. The
// reproduction targets are the *ratios*: naive ≫ binary, and adding stubs
// costs extra but less than doubling the object count would.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/naive_serializer.h"
#include "src/common/arena.h"
#include "src/net/message.h"
#include "src/snapshot/serializer.h"
#include "tests/snapshot_builder.h"

namespace adgc {
namespace {

/// The paper's workload: a chain of `n` dummy objects, each just holding a
/// reference to the next; optionally one remote reference (stub) each.
SnapshotData chain_snapshot(std::size_t n, bool with_stubs) {
  SnapshotData snap;
  snap.pid = 0;
  snap.taken_at = 1;
  std::vector<SnapshotObject> objects(n);
  for (std::size_t i = 1; i <= n; ++i) {
    SnapshotObject& o = objects[i - 1];
    o.seq = i;
    if (i < n) o.local_fields.push_back(i + 1);
    if (with_stubs) o.remote_fields.push_back(make_ref_id(0, i));
  }
  snap.roots = {1};
  pack_objects(snap, objects);
  if (with_stubs) {
    snap.stubs.reserve(n);
    for (std::size_t i = 1; i <= n; ++i) {
      snap.stubs.push_back({make_ref_id(0, i), ObjectId{1, i}, 0});
    }
  }
  return snap;
}

void BM_Serialize(benchmark::State& state) {
  const bool naive = state.range(0) != 0;
  const bool stubs = state.range(1) != 0;
  const auto snap = chain_snapshot(10'000, stubs);
  NaiveSerializer n;
  BinarySerializer b;
  const Serializer& s = naive ? static_cast<const Serializer&>(n)
                              : static_cast<const Serializer&>(b);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto out = s.serialize(snap);
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel((naive ? std::string("naive") : std::string("binary")) +
                 (stubs ? "+10k stubs" : ""));
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_Serialize)->ArgsProduct({{0, 1}, {0, 1}})->Unit(benchmark::kMillisecond);

void BM_Deserialize(benchmark::State& state) {
  const bool naive = state.range(0) != 0;
  const auto snap = chain_snapshot(10'000, true);
  NaiveSerializer n;
  BinarySerializer b;
  const Serializer& s = naive ? static_cast<const Serializer&>(n)
                              : static_cast<const Serializer&>(b);
  const auto bytes = s.serialize(snap);
  for (auto _ : state) {
    auto back = s.deserialize(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetLabel(naive ? "naive" : "binary");
}
BENCHMARK(BM_Deserialize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Batch-encode microbench: serializing 32 control messages into one
/// arena-backed buffer (the batcher's flush path) vs 32 individual
/// encode_message calls, each allocating its own vector. What the arena
/// buys is allocation reuse; the per-item encode work is identical.
AddScionAckMsg bench_ack(std::uint64_t i) {
  AddScionAckMsg m;
  m.ref = make_ref_id(1, i);
  m.handshake = i;
  return m;
}

void BM_EncodeIndividual(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) {
      const auto bytes = encode_message(MessagePayload{bench_ack(i)});
      total += bytes.size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EncodeIndividual)->Arg(32)->Arg(256);

void BM_EncodeArenaBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BufferArena arena;
  for (auto _ : state) {
    ByteWriter w{arena.acquire()};
    w.u8(static_cast<std::uint8_t>(MessageTag::kBatch));
    w.u32(static_cast<std::uint32_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::size_t at = w.size();
      w.u32(0);
      encode_message_into(w, MessagePayload{bench_ack(i)});
      w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
    }
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
    arena.release(std::move(bytes));  // steady-state: the buffer comes back
  }
}
BENCHMARK(BM_EncodeArenaBatch)->Arg(32)->Arg(256);

double measure_ms(const Serializer& s, const SnapshotData& snap, int reps = 5) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    bench::Stopwatch sw;
    auto out = s.serialize(snap);
    benchmark::DoNotOptimize(out);
    best = std::min(best, sw.ms());
  }
  return best;
}

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::JsonReport report("serialization");
  bench::header(
      "§4 snapshot serialization — 10k dummy objects\n"
      "(paper: Rotor 26037 ms, +10k stubs 45125 ms (+73%);\n"
      " production .NET 250-350 ms, ~100x faster)");

  const auto plain = chain_snapshot(10'000, false);
  const auto stubbed = chain_snapshot(10'000, true);
  NaiveSerializer naive;
  BinarySerializer binary;

  const double n_plain = measure_ms(naive, plain);
  const double n_stub = measure_ms(naive, stubbed);
  const double b_plain = measure_ms(binary, plain);
  const double b_stub = measure_ms(binary, stubbed);

  std::printf("%-34s %12s\n", "configuration", "time (ms)");
  std::printf("%-34s %12.2f\n", "naive (Rotor stand-in), plain", n_plain);
  std::printf("%-34s %12.2f  (+%.0f%% over plain)\n",
              "naive, +10k remote references", n_stub, (n_stub - n_plain) / n_plain * 100);
  std::printf("%-34s %12.2f\n", "binary (.NET stand-in), plain", b_plain);
  std::printf("%-34s %12.2f\n", "binary, +10k remote references", b_stub);
  std::printf("\nnaive/binary ratio (plain):   %6.1fx   (paper: ~100x)\n",
              n_plain / b_plain);
  std::printf("naive/binary ratio (stubbed): %6.1fx\n", n_stub / b_stub);
  // "Serializing a remote reference is faster than serializing an
  //  additional dummy object": compare the stub increment against a graph
  //  with 20k objects.
  const auto doubled = chain_snapshot(20'000, false);
  const double n_doubled = measure_ms(naive, doubled);
  std::printf(
      "\nstub increment %.2f ms vs extra-10k-objects increment %.2f ms "
      "(stubs cheaper: %s)\n",
      n_stub - n_plain, n_doubled - n_plain,
      (n_stub - n_plain) < (n_doubled - n_plain) ? "yes" : "NO");

  report.add("serializers", {{"naive_plain_ms", n_plain},
                             {"naive_stubbed_ms", n_stub},
                             {"binary_plain_ms", b_plain},
                             {"binary_stubbed_ms", b_stub},
                             {"naive_binary_ratio", n_plain / b_plain}});

  bench::header(
      "Extension — batch encode path: 32-message arena batch vs 32\n"
      "individual encode_message allocations (the batcher's flush path)");
  constexpr int kMsgs = 32, kReps = 20'000;
  double individual_ms = 1e100;
  for (int attempt = 0; attempt < 3; ++attempt) {
    bench::Stopwatch sw;
    std::size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      for (int i = 0; i < kMsgs; ++i) {
        sink += encode_message(MessagePayload{bench_ack(i)}).size();
      }
    }
    benchmark::DoNotOptimize(sink);
    individual_ms = std::min(individual_ms, sw.ms());
  }
  double arena_ms = 1e100;
  BufferArena arena;
  for (int attempt = 0; attempt < 3; ++attempt) {
    bench::Stopwatch sw;
    std::size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      ByteWriter w{arena.acquire()};
      w.u8(static_cast<std::uint8_t>(MessageTag::kBatch));
      w.u32(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t at = w.size();
        w.u32(0);
        encode_message_into(w, MessagePayload{bench_ack(i)});
        w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
      }
      auto bytes = w.take();
      sink += bytes.size();
      arena.release(std::move(bytes));
    }
    benchmark::DoNotOptimize(sink);
    arena_ms = std::min(arena_ms, sw.ms());
  }
  const double per_msg_individual_ns = individual_ms * 1e6 / (kReps * kMsgs);
  const double per_msg_arena_ns = arena_ms * 1e6 / (kReps * kMsgs);
  std::printf("individual encode: %8.1f ns/msg\n", per_msg_individual_ns);
  std::printf("arena batch:       %8.1f ns/msg   (%.2fx)\n", per_msg_arena_ns,
              per_msg_individual_ns / per_msg_arena_ns);
  report.add("batch_encode", {{"individual_ns_per_msg", per_msg_individual_ns},
                              {"arena_ns_per_msg", per_msg_arena_ns},
                              {"speedup", per_msg_individual_ns / per_msg_arena_ns}});
  return 0;
}
