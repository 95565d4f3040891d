// Seed-corpus generator: writes one file per representative wire message
// (every message kind the codec knows) plus a serialized snapshot into the
// directory given as argv[1]. The checked-in corpus under fuzz/corpus/ was
// produced by this tool; regenerate after changing the wire format.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "bench/naive_serializer.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/snapshot/serializer.h"
#include "tests/snapshot_builder.h"

using namespace adgc;

namespace {

void write_file(const std::filesystem::path& dir, const std::string& name,
                const std::vector<std::byte>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s (%zu bytes)\n", name.c_str(), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path dir = argv[1];
  std::filesystem::create_directories(dir);

  InvokeMsg inv;
  inv.ref = make_ref_id(1, 2);
  inv.ic = 3;
  inv.target = {2, 4};
  inv.caller = {1, 9};
  inv.effect = InvokeEffect::kStoreArgs;
  inv.args = {{make_ref_id(1, 3), {3, 8}}};
  inv.payload.assign(48, std::byte{7});
  inv.want_reply = true;
  inv.call_id = 77;
  write_file(dir, "invoke", encode_message(inv));

  ReplyMsg rep;
  rep.ref = make_ref_id(4, 1);
  rep.ic = 17;
  rep.call_id = 77;
  write_file(dir, "reply", encode_message(rep));

  NewSetStubsMsg nss;
  nss.export_seq = 5;
  nss.live = {make_ref_id(0, 1), make_ref_id(0, 2), make_ref_id(0, 3)};
  write_file(dir, "new_set_stubs", encode_message(nss));

  AddScionMsg add;
  add.ref = make_ref_id(2, 2);
  add.target_seq = 11;
  add.holder = 6;
  add.handshake = 41;
  write_file(dir, "add_scion", encode_message(add));

  AddScionAckMsg ack;
  ack.ref = make_ref_id(2, 2);
  ack.handshake = 41;
  write_file(dir, "add_scion_ack", encode_message(ack));

  CdmMsg cdm;
  cdm.detection = {1, 2};
  cdm.candidate = make_ref_id(1, 1);
  cdm.via = make_ref_id(2, 2);
  cdm.via_ic = 9;
  cdm.hops = 3;
  cdm.source = {{make_ref_id(1, 1), 0}, {make_ref_id(3, 3), 1}};
  cdm.target = {{make_ref_id(2, 2), 0}};
  write_file(dir, "cdm", encode_message(cdm));

  // Listings are written as runs of consecutive refs: one long run (a
  // process's standing references), and many short ones.
  NewSetStubsMsg long_run;
  long_run.export_seq = 6;
  for (std::uint64_t i = 0; i < 20'000; ++i) long_run.live.push_back(make_ref_id(0, 1 + i));
  write_file(dir, "new_set_stubs_long_run", encode_message(long_run));
  NewSetStubsMsg many_runs;
  many_runs.export_seq = 7;
  for (std::uint64_t i = 0; i < 400; ++i) {
    many_runs.live.push_back(make_ref_id(0, 1 + 3 * i));
    if (i % 4 == 0) many_runs.live.push_back(make_ref_id(0, 2 + 3 * i));
  }
  write_file(dir, "new_set_stubs_many_runs", encode_message(many_runs));

  CdmMsg large_cdm = cdm;
  large_cdm.hops = 17;
  large_cdm.source.clear();
  large_cdm.target.clear();
  for (std::uint64_t i = 0; i < 64; ++i) {
    large_cdm.source.push_back({make_ref_id(1 + i / 16, 2 * i), i});
    large_cdm.target.push_back({make_ref_id(5, 1 + i * i), i % 4});
  }
  write_file(dir, "cdm_large", encode_message(large_cdm));

  SnapshotData snap;
  snap.pid = 1;
  std::vector<SnapshotObject> objects;
  for (ObjectSeq i = 1; i <= 6; ++i) {
    SnapshotObject o;
    o.seq = i;
    if (i > 1) o.local_fields.push_back(i - 1);
    o.payload.assign(4, std::byte{static_cast<unsigned char>(i)});
    objects.push_back(std::move(o));
  }
  snap.stubs.push_back({make_ref_id(1, 1), {2, 2}, 3});
  snap.scions.push_back({make_ref_id(2, 1), 3, 4, 5});
  pack_objects(snap, objects);
  write_file(dir, "snapshot_binary", BinarySerializer{}.serialize(snap));
  write_file(dir, "snapshot_naive", NaiveSerializer{}.serialize(snap));

  // A snapshot with a summary worth checking: a rooted holder, a two-object
  // cycle holding a stub, two scions whose targets reach one shared stub, a
  // component that joins two stub sets, and a stub that no scion reaches.
  SnapshotData graph;
  graph.pid = 2;
  graph.roots = {1};
  std::vector<SnapshotObject> graph_objects;
  for (ObjectSeq i = 1; i <= 7; ++i) graph_objects.push_back({i, {}, {}, {}});
  graph_objects[1].local_fields = {3};
  graph_objects[2].local_fields = {2, 4};
  graph_objects[4].local_fields = {4, 6};
  const ObjectSeq holders[] = {1, 3, 4, 6, 7};
  for (std::uint64_t k = 0; k < 5; ++k) {
    graph.stubs.push_back({make_ref_id(2, k + 1), {3, k + 1}, k});
    graph_objects[holders[k] - 1].remote_fields.push_back(make_ref_id(2, k + 1));
  }
  graph.scions.push_back({make_ref_id(4, 1), 4, 2, 1});
  graph.scions.push_back({make_ref_id(4, 2), 4, 5, 2});
  graph.scions.push_back({make_ref_id(5, 1), 5, 4, 0});
  pack_objects(graph, graph_objects);
  write_file(dir, "snapshot_graph", BinarySerializer{}.serialize(graph));

  // TCP frame seeds. fuzz_frame_decode interprets the FIRST byte as the
  // feed-chunk selector, so every frame seed is prefixed with one byte
  // (0x0c → 4096-byte chunks ≈ one-shot; 0x00 → byte-at-a-time).
  const auto frame_seed = [](std::uint8_t chunk_sel, std::vector<std::byte> frame) {
    std::vector<std::byte> seed;
    seed.reserve(frame.size() + 1);
    seed.push_back(std::byte{chunk_sel});
    seed.insert(seed.end(), frame.begin(), frame.end());
    return seed;
  };
  write_file(dir, "frame_hello", frame_seed(0x0c, encode_hello_frame(3, 2)));
  {
    Envelope env;
    env.src = 1;
    env.dst = 2;
    env.src_inc = 1;
    env.dst_inc = kUnknownIncarnation;
    env.bytes = encode_message(cdm);
    write_file(dir, "frame_data_cdm", frame_seed(0x0c, encode_data_frame(env)));
    env.bytes = encode_message(inv);
    write_file(dir, "frame_data_invoke", frame_seed(0x00, encode_data_frame(env)));
  }
  {
    // Two back-to-back frames in one stream, fed in 16-byte chunks.
    auto stream = encode_hello_frame(5, 0);
    Envelope env;
    env.src = 5;
    env.dst = 0;
    env.bytes = encode_message(rep);
    const auto second = encode_data_frame(env);
    stream.insert(stream.end(), second.begin(), second.end());
    write_file(dir, "frame_stream_pair", frame_seed(0x04, std::move(stream)));
  }
  {
    // A corrupted frame (flipped payload bit → CRC mismatch): seeds the
    // rejection path.
    Envelope env;
    env.src = 7;
    env.dst = 8;
    env.bytes = encode_message(nss);
    auto bad = encode_data_frame(env);
    bad.back() ^= std::byte{0x01};
    write_file(dir, "frame_bad_crc", frame_seed(0x0c, std::move(bad)));
  }

  // Batch seeds: a healthy multi-kind batch, a singleton, and the defect
  // shapes fuzz_batch_decode cares about (truncated inner length, item-kind
  // confusion, nesting) plus a batch riding a TCP frame with and without a
  // CRC-slice bit flip.
  {
    BatchMsg batch;
    batch.items.push_back(encode_message(cdm));
    batch.items.push_back(encode_message(nss));
    batch.items.push_back(encode_message(ack));
    write_file(dir, "batch_mixed", encode_message(batch));

    BatchMsg one;
    one.items.push_back(encode_message(ack));
    write_file(dir, "batch_singleton", encode_message(one));

    auto truncated = encode_message(batch);
    truncated.resize(truncated.size() - 7);  // cuts into the last item
    write_file(dir, "batch_truncated_item", truncated);

    auto confused = encode_message(batch);
    confused[9] = std::byte{0xEE};  // first item's tag byte: unknown kind
    write_file(dir, "batch_kind_confusion", confused);

    auto inflated = encode_message(batch);
    inflated[5] = std::byte{0xff};  // first item's length: larger than buffer
    inflated[6] = std::byte{0xff};
    write_file(dir, "batch_bad_inner_length", inflated);

    BatchMsg nested;
    nested.items.push_back(encode_message(one));
    write_file(dir, "batch_nested", encode_message(nested));

    // A few kilobytes that decode past the per-frame budget: every item is
    // a listing of kMaxDecodedRefs refs, legal alone, one run each.
    NewSetStubsMsg full;
    full.live.resize(kMaxDecodedRefs);
    std::iota(full.live.begin(), full.live.end(), make_ref_id(0, 1));
    BatchMsg over_budget;
    over_budget.items.assign(200, encode_message(full));
    write_file(dir, "batch_over_budget", encode_message(over_budget));

    Envelope env;
    env.src = 1;
    env.dst = 2;
    env.src_inc = 1;
    env.dst_inc = kUnknownIncarnation;
    env.bytes = encode_message(batch);
    write_file(dir, "frame_batch", frame_seed(0x0c, encode_data_frame(env)));
    auto bad = encode_data_frame(env);
    bad[bad.size() / 2] ^= std::byte{0x10};
    write_file(dir, "frame_batch_corrupt", frame_seed(0x0c, std::move(bad)));
  }

  // Admin HTTP request seeds (fuzz_http_request): the requests the endpoint
  // actually serves, both line terminators, and the rejection shapes.
  const auto text_seed = [](const char* s) {
    const std::string_view sv(s);
    std::vector<std::byte> bytes(sv.size());
    std::memcpy(bytes.data(), sv.data(), sv.size());
    return bytes;
  };
  write_file(dir, "http_get_metrics",
             text_seed("GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n"));
  write_file(dir, "http_get_healthz_11",
             text_seed("GET /healthz HTTP/1.1\r\nAccept: */*\r\n\r\n"));
  write_file(dir, "http_get_tracez_bare_lf", text_seed("GET /tracez HTTP/1.0\n\n"));
  write_file(dir, "http_post_rejected",
             text_seed("POST /metrics HTTP/1.0\r\nContent-Length: 4\r\n\r\nbody"));
  write_file(dir, "http_bad_version", text_seed("GET /metrics HTTP/2.0\r\n\r\n"));
  write_file(dir, "http_truncated_head", text_seed("GET /metrics HTT"));

  std::printf("corpus written to %s\n", dir.string().c_str());
  return 0;
}
