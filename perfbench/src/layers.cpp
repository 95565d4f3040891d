#include "perfbench/src/layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "src/dcda/algebra.h"
#include "src/dcda/detector.h"
#include "src/dgc/reference_listing.h"
#include "src/lgc/mark_sweep.h"
#include "src/net/frame.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/summarizer.h"

namespace perfbench {

using namespace adgc;

NodeState capture_state(Process& p) {
  NodeState s;
  s.pid = p.id();
  s.now = p.now();
  s.heap = p.heap();
  s.stubs = p.stubs();
  s.scions = p.scions();
  s.summary = p.current_summary();
  s.cfg = p.config();
  return s;
}

namespace {

/// Candidates a detection could start from: scions whose summary has
/// outgoing stubs. Capped so one sample stays short.
std::vector<RefId> derivable(const SummarizedGraph& g, std::size_t cap) {
  std::vector<RefId> out;
  for (const auto& [ref, scion] : g.scions) {
    if (!scion.stubs_from.empty()) out.push_back(ref);
  }
  std::sort(out.begin(), out.end());
  if (out.size() > cap) out.resize(cap);
  return out;
}

struct BenchDetector {
  ProcessConfig cfg;
  Metrics metrics;
  std::vector<std::pair<ProcessId, CdmMsg>> outbox;
  std::unique_ptr<Detector> det;

  BenchDetector(ProcessId pid, const ProcessConfig& base,
                std::shared_ptr<const SummarizedGraph> summary)
      : cfg(base) {
    cfg.cdm_dedup_cache_size = 0;  // repeated timing of one CDM must not be deduped
    cfg.max_inflight_detections = 1'000'000;
    Detector::Hooks hooks;
    hooks.send_cdm = [this](ProcessId dst, const CdmMsg& m) { outbox.emplace_back(dst, m); };
    hooks.cycle_found = [](DetectionId, RefId, std::uint64_t) {};
    det = std::make_unique<Detector>(pid, cfg, metrics, std::move(hooks));
    det->set_snapshot(std::move(summary));
  }
};

}  // namespace

void LayerProbe::time_frame(const std::vector<std::byte>& payload, std::uint64_t parent) {
  Envelope env;
  env.src = 0;
  env.dst = 1;
  env.bytes = payload;
  std::vector<std::byte> frame;
  double enc = 0, dec = 0;
  {
    Scope s(spans_, "net.frame_encode", parent);
    enc = time_us([&] { frame = encode_data_frame(env); });
  }
  {
    Scope s(spans_, "net.frame_decode", parent);
    dec = time_us([&] {
      FrameDecoder d;
      d.feed(frame);
      auto f = d.next();
      if (!f) throw std::runtime_error("frame did not decode");
    });
  }
  frame_encode_us.add(enc);
  frame_decode_us.add(dec);
  frame_bytes += static_cast<double>(frame.size());
  frame_encode_total_us += enc;
  frame_decode_total_us += dec;
}

void LayerProbe::sample_invoke(const InvokeMsg& inv, std::uint64_t parent) {
  const double cpu0 = thread_cpu_s();
  Scope round(spans_, "probe.invoke", parent);
  std::vector<std::byte> bytes;
  invoke_encode_us.add(time_us([&] { bytes = encode_message(inv); }));
  invoke_decode_us.add(time_us([&] { (void)decode_message(bytes); }));
  time_frame(bytes, round.id());
  ReplyMsg reply;
  reply.ref = inv.ref;
  reply.ic = inv.ic + 1;
  reply.call_id = inv.call_id;
  std::vector<std::byte> rbytes;
  reply_encode_us.add(time_us([&] { rbytes = encode_message(reply); }));
  reply_decode_us.add(time_us([&] { (void)decode_message(rbytes); }));
  probe_cpu_s_ += thread_cpu_s() - cpu0;
}

void LayerProbe::sample(std::vector<NodeState> nodes, std::uint64_t parent) {
  const double cpu0 = thread_cpu_s();
  Scope round(spans_, "probe.round", parent);
  ++rounds_;
  std::map<ProcessId, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i].pid] = i;

  for (NodeState& n : nodes) {
    if (n.summary) staleness_ms.add(static_cast<double>(n.now - n.summary->taken_at) / 1000.0);

    // snapshot: serialize and summarize a capture of the copy (the capture
    // itself is timed in production: snapshot_capture_us).
    SnapshotData snap;
    {
      Scope s(spans_, "snapshot.capture", round.id());
      snap = capture_snapshot(n.pid, n.now, n.heap, n.stubs, n.scions);
    }
    {
      Scope s(spans_, "snapshot.serialize", round.id());
      BinarySerializer ser;
      std::vector<std::byte> bytes;
      serialize_us.add(time_us([&] { bytes = ser.serialize(snap); }));
      snapshot_bytes.add(static_cast<double>(bytes.size()));
    }
    {
      Scope s(spans_, "snapshot.summarize", round.id());
      SccSummarizer sum;
      summarize_us.add(time_us([&] { (void)sum.summarize(snap); }));
    }

    // dgc: one post-LGC NewSetStubs fan-out, its codec, and its application
    // at each receiving node (on a copy of that node's scion table).
    std::set<ProcessId> contacts;
    for (const auto& [ref, stub] : n.stubs) contacts.insert(stub.target.owner);
    std::map<ProcessId, NewSetStubsMsg> all;
    {
      Scope s(spans_, "dgc.nss_build", round.id());
      nss_build_us.add(time_us([&] { all = build_all_new_set_stubs(n.stubs, contacts); }));
    }
    for (auto& [dst, msg] : all) {
      msg.export_seq = ~std::uint64_t{0} >> 1;  // newer than anything the table saw
      nss_entries.add(static_cast<double>(msg.live.size()));
      const MessagePayload payload = msg;
      std::vector<std::byte> bytes;
      {
        Scope s(spans_, "net.nss_encode", round.id());
        nss_encode_us.add(time_us([&] { bytes = encode_message(payload); }));
      }
      nss_bytes.add(static_cast<double>(bytes.size()));
      {
        Scope s(spans_, "net.nss_decode", round.id());
        nss_decode_us.add(time_us([&] { (void)decode_message(bytes); }));
      }
      time_frame(bytes, round.id());
      auto it = index.find(dst);
      if (it == index.end()) continue;
      const NodeState& owner = nodes[it->second];
      ScionTable copy = owner.scions;
      Scope s(spans_, "dgc.nss_apply", round.id());
      nss_apply_us.add(time_once_us([&] {
        (void)apply_new_set_stubs(copy, n.pid, msg, owner.now,
                                  owner.cfg.scion_pending_grace_us);
      }));
    }
  }

  // dcda: derive at each node from its published summary, then deliver the
  // derived CDMs to bench-owned detectors of their destinations.
  std::map<ProcessId, std::unique_ptr<BenchDetector>> dets;
  for (const NodeState& n : nodes) {
    if (n.summary) dets[n.pid] = std::make_unique<BenchDetector>(n.pid, n.cfg, n.summary);
  }
  std::vector<std::pair<ProcessId, CdmMsg>> cdms;
  for (auto& [pid, bd] : dets) {
    const NodeState& n = nodes[index[pid]];
    for (RefId cand : derivable(*bd->det->snapshot(), 16)) {
      Scope s(spans_, "dcda.derive", round.id());
      derive_us.add(time_once_us([&] { bd->det->start_detection(cand, n.now); }));
    }
    for (auto& m : bd->outbox) {
      if (cdms.size() < 32) cdms.push_back(std::move(m));
    }
    bd->outbox.clear();
  }
  for (const auto& [dst, cdm] : cdms) {
    const MessagePayload payload = cdm;
    std::vector<std::byte> bytes;
    {
      Scope s(spans_, "net.cdm_encode", round.id());
      cdm_encode_us.add(time_us([&] { bytes = encode_message(payload); }));
    }
    {
      Scope s(spans_, "net.cdm_decode", round.id());
      cdm_decode_us.add(time_us([&] { (void)decode_message(bytes); }));
    }
    {
      Scope s(spans_, "dcda.match", round.id());
      const Algebra alg = algebra_from_msg(cdm);
      match_us.add(time_us([&] { (void)match(alg); }));
    }
    auto it = dets.find(dst);
    if (it == dets.end()) continue;
    Scope s(spans_, "dcda.on_cdm", round.id());
    const SimTime now = nodes[index[dst]].now;
    on_cdm_us.add(time_once_us([&] { it->second->det->on_cdm(cdm, now); }));
  }

  // lgc last: it sweeps the copies (repetitions of a short run then mark
  // the already-swept heap, as a steady-state collector does).
  for (NodeState& n : nodes) {
    Scope s(spans_, "lgc.run", round.id());
    const std::set<RefId> pinned;
    lgc_run_us.add(time_us([&] { (void)lgc::run(n.heap, n.stubs, n.scions, pinned, n.now); }));
  }
  probe_cpu_s_ += thread_cpu_s() - cpu0;
}

const std::vector<std::string>& e2e_metric_names() {
  static const std::vector<std::string> names = {
      "setup_s",
      "rmi_throughput_cps", "cpu_us_per_op",   "ctrl_msgs_per_op",
      "ctrl_bytes_per_op", "reclaim_p50_ms",   "reclaim_tail_ms"};
  return names;
}

void fill_trace_overhead(const MetricMap& untraced, const MetricMap& traced, MetricMap& out) {
  for (const std::string& name : e2e_metric_names()) {
    if (name == "setup_s") continue;
    auto u = untraced.find(name);
    auto t = traced.find(name);
    double pct = 0;
    if (u != untraced.end() && t != traced.end() && u->second.value != 0) {
      pct = (t->second.value - u->second.value) / u->second.value * 100.0;
    }
    out["bench.trace_overhead_pct." + name] = {pct, "pct"};
  }
}

double drift(double start, double end, double slack) {
  const double d = std::abs(end - start) - slack;
  if (d <= 0) return 0;
  return d / std::max({start, end, 1.0});
}

void fill_layer_metrics(const LayerProbe& p, const LayerContext& c, MetricMap& out) {
  const Metrics& a = c.start;
  const Metrics& b = c.end;
  const auto d = [](const Counter& e, const Counter& s) { return delta(e, s); };
  const auto put = [&](const std::string& name, double v, const char* unit) {
    out[name] = {std::isfinite(v) ? v : 0.0, unit};
  };
  const double wall = std::max(c.wall_s, 1e-9);

  // net
  put("net.invoke_encode_us", p.invoke_encode_us.median(), "us");
  put("net.invoke_decode_us", p.invoke_decode_us.median(), "us");
  put("net.nss_encode_us", p.nss_encode_us.mean(), "us");
  put("net.nss_decode_us", p.nss_decode_us.mean(), "us");
  put("net.cdm_encode_us", p.cdm_encode_us.median(), "us");
  put("net.cdm_decode_us", p.cdm_decode_us.median(), "us");
  put("net.frame_encode_us", c.tcp ? p.frame_encode_us.mean() : 0, "us");
  put("net.frame_decode_us", c.tcp ? p.frame_decode_us.mean() : 0, "us");
  put("net.msgs_sent", d(b.messages_sent, a.messages_sent) / wall, "1/s");
  put("net.bytes_sent", d(b.bytes_sent, a.bytes_sent) / wall, "B/s");
  const double batches = d(b.batches_sent, a.batches_sent);
  const double singletons = d(b.batch_singletons, a.batch_singletons);
  put("net.batch_occupancy", ratio(d(b.batched_messages, a.batched_messages), batches), "count");
  put("net.batch_singleton_frac", ratio(singletons, batches + singletons), "frac");
  put("net.tcp_writeq_depth_p99", hist_delta_quantile(b.tcp_writeq_depth, a.tcp_writeq_depth, 0.99),
      "count");

  // rt
  put("rt.actor_wait_us_p50", p.actor_wait_us.quantile(0.5), "us");
  put("rt.actor_wait_us_p99", p.actor_wait_us.quantile(0.99), "us");
  put("rt.rmi_rtt_us_p50", hist_delta_quantile(b.rmi_rtt_us, a.rmi_rtt_us, 0.5), "us");
  put("rt.rmi_rtt_us_p99", hist_delta_quantile(b.rmi_rtt_us, a.rmi_rtt_us, 0.99), "us");
  put("rt.heap_objects", c.heap_objects, "count");

  // lgc
  const double lgc_runs = d(b.lgc_runs, a.lgc_runs);
  put("lgc.pause_us_p50", hist_delta_quantile(b.lgc_pause_us, a.lgc_pause_us, 0.5), "us");
  put("lgc.pause_us_p99", hist_delta_quantile(b.lgc_pause_us, a.lgc_pause_us, 0.99), "us");
  put("lgc.run_us", p.lgc_run_us.mean(), "us");
  put("lgc.objects_reclaimed_per_run",
      ratio(d(b.objects_reclaimed, a.objects_reclaimed), lgc_runs), "count");

  // dgc
  const double nss_sent = d(b.new_set_stubs_sent, a.new_set_stubs_sent);
  const double nss_recv = d(b.new_set_stubs_received, a.new_set_stubs_received);
  put("dgc.nss_build_us", p.nss_build_us.mean(), "us");
  put("dgc.nss_apply_us", p.nss_apply_us.mean(), "us");
  put("dgc.nss_entries_per_msg", p.nss_entries.mean(), "count");
  put("dgc.nss_bytes_per_s", nss_sent * p.nss_bytes.mean() / wall, "B/s");
  put("dgc.stubs", c.stubs, "count");
  put("dgc.scions", c.scions, "count");

  // snapshot
  const double captures = d(b.snapshots_taken, a.snapshots_taken);
  const double coalesced = d(b.snapshots_coalesced, a.snapshots_coalesced);
  put("snapshot.capture_us_p50",
      hist_delta_quantile(b.snapshot_capture_us, a.snapshot_capture_us, 0.5), "us");
  put("snapshot.capture_us_p99",
      hist_delta_quantile(b.snapshot_capture_us, a.snapshot_capture_us, 0.99), "us");
  put("snapshot.serialize_us", p.serialize_us.mean(), "us");
  put("snapshot.persist_us_p50",
      hist_delta_quantile(b.snapshot_persist_us, a.snapshot_persist_us, 0.5), "us");
  put("snapshot.summarize_us", p.summarize_us.mean(), "us");
  put("snapshot.bytes", p.snapshot_bytes.mean(), "B");
  put("snapshot.coalesced_frac", ratio(coalesced, captures + coalesced), "frac");
  put("snapshot.staleness_ms_p50", p.staleness_ms.quantile(0.5), "ms");
  put("snapshot.staleness_ms_p99", p.staleness_ms.quantile(0.99), "ms");
  put("snapshot.persist_failures",
      d(b.snapshot_persist_failures, a.snapshot_persist_failures), "count");

  // dcda
  const double started = d(b.detections_started, a.detections_started);
  const double cdms_sent = d(b.cdms_sent, a.cdms_sent);
  const double cdms_recv = d(b.cdms_received, a.cdms_received);
  put("dcda.derive_us", p.derive_us.mean(), "us");
  put("dcda.on_cdm_us", p.on_cdm_us.mean(), "us");
  put("dcda.match_us", p.match_us.median(), "us");
  put("dcda.useful_frac", ratio(d(b.detections_cycle_found, a.detections_cycle_found), started),
      "frac");
  put("dcda.aborted_ic_frac", ratio(d(b.detections_aborted_ic, a.detections_aborted_ic), started),
      "frac");
  put("dcda.aborted_local_frac",
      ratio(d(b.detections_aborted_local, a.detections_aborted_local), started), "frac");
  put("dcda.cdm_bytes_per_cdm", ratio(d(b.cdm_bytes, a.cdm_bytes), cdms_sent), "B");
  put("dcda.detection_lifetime_us_p50",
      hist_delta_quantile(b.detection_lifetime_us, a.detection_lifetime_us, 0.5), "us");
  put("dcda.detection_lifetime_us_p99",
      hist_delta_quantile(b.detection_lifetime_us, a.detection_lifetime_us, 0.99), "us");

  // Attribution: layer busy time implied by the window's counters times the
  // unit costs timed above (or, where production records it, the histogram
  // sums), against the process CPU the same window burned.
  const double inv_sent = d(b.invocations_sent, a.invocations_sent);
  const double inv_recv = d(b.invocations_received, a.invocations_received);
  const double rep_sent = d(b.replies_sent, a.replies_sent);
  const double rep_recv = d(b.replies_received, a.replies_received);
  const double keepup_lgc = lgc_runs * p.lgc_run_us.mean();
  const double keepup_nss = lgc_runs * p.nss_build_us.mean() +
                            nss_sent * p.nss_encode_us.mean() +
                            nss_recv * (p.nss_decode_us.mean() + p.nss_apply_us.mean());
  const double snapshot_busy =
      hist_delta_sum(b.snapshot_capture_us, a.snapshot_capture_us) +
      hist_delta_sum(b.snapshot_persist_us, a.snapshot_persist_us) +
      hist_delta_sum(b.snapshot_summarize_us, a.snapshot_summarize_us);
  const double rmi_codec = inv_sent * p.invoke_encode_us.median() +
                           inv_recv * p.invoke_decode_us.median() +
                           rep_sent * p.reply_encode_us.median() +
                           rep_recv * p.reply_decode_us.median();
  const double frame_us_per_byte =
      c.tcp ? ratio(p.frame_encode_total_us + p.frame_decode_total_us, p.frame_bytes) : 0.0;
  const double frames = d(b.bytes_sent, a.bytes_sent) * frame_us_per_byte;
  const double dcda_busy = cdms_sent * p.cdm_encode_us.median() +
                           cdms_recv * (p.cdm_decode_us.median() + p.on_cdm_us.mean()) +
                           started * p.derive_us.mean();
  const double busy = keepup_lgc + keepup_nss + snapshot_busy + rmi_codec + frames + dcda_busy;
  const double cpu_us = std::max(0.0, c.cpu_s - p.probe_cpu_s()) * 1e6;
  const double ops = std::max(c.ops, 1.0);
  put("attrib.layer_us_per_op", busy / ops, "us");
  put("attrib.cpu_us_per_op", cpu_us / ops, "us");
  put("attrib.remainder_us_per_op", (cpu_us - busy) / ops, "us");
  put("attrib.keepup_lgc_us_per_op", keepup_lgc / ops, "us");
  put("attrib.keepup_nss_us_per_op", keepup_nss / ops, "us");

  // benchmark
  put("bench.gen_late_ms_p99", c.gen_late_ms.quantile(0.99), "ms");
  put("bench.attrib_remainder_frac", ratio(cpu_us - busy, cpu_us), "frac");
  put("bench.steady_drift_frac", c.steady_drift, "frac");
  put("bench.layer_samples", static_cast<double>(p.rounds()), "count");
  put("bench.rmi_samples", c.rmi_samples, "count");
  put("bench.reclaim_samples", c.reclaim_samples, "count");
}

}  // namespace perfbench
