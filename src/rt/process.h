// One participant of the distributed object system.
//
// A Process is an actor: every method must be called from its execution
// context (the simulator's event loop or its worker thread in the threaded
// runtime). It owns:
//   * the object heap and local roots (the mutator's world),
//   * the DGC tables (stubs/scions) and the reference-listing protocol,
//   * the local mark-sweep GC,
//   * periodic snapshotting + summarization,
//   * the DCDA detector.
// Message tags in kReservedTags are not part of that protocol: deliver()
// hands them to a handler a bench or test registered (the §5 comparison
// collectors in src/baseline attach this way) and drops them otherwise.
//
// Reference export model (stands in for Rotor/.NET remoting interception):
//   * exporting one of our own objects creates the scion locally, then hands
//     out an ExportedRef — always safe;
//   * re-exporting a reference we merely hold (third-party export) runs the
//     scion-first handshake: AddScion to the owner, retried until acked;
//     only then does the invocation carrying the reference leave. While the
//     handshake is pending the re-exported stub is pinned against our LGC.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/dcda/detector.h"
#include "src/dgc/reference_listing.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/net/batcher.h"
#include "src/net/peer_health.h"
#include "src/net/transport.h"
#include "src/rt/heap.h"
#include "src/snapshot/pipeline.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot_store.h"
#include "src/snapshot/summarizer.h"

namespace adgc {

/// An argument of a remote invocation: either one of our own objects (to be
/// exported) or a reference we hold (to be re-exported).
struct ArgRef {
  ObjectSeq local = kNoObject;
  RefId remote = kNoRef;

  static ArgRef own(ObjectSeq seq) { return {seq, kNoRef}; }
  static ArgRef held(RefId ref) { return {kNoObject, ref}; }
};

class Process {
 public:
  /// `incarnation` is 0 for the first start; restarts construct a fresh
  /// Process with the next incarnation, which partitions the RefId/ObjectSeq
  /// counter spaces so identifiers of the lost incarnation are never reused.
  Process(ProcessId pid, const ProcessConfig& cfg, Env& env, Incarnation incarnation = 0);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return pid_; }
  Incarnation incarnation() const { return incarnation_; }
  const ProcessConfig& config() const { return cfg_; }
  Metrics& metrics() { return env_.metrics(); }

  /// Kicks off the periodic LGC / snapshot / DCDA tasks. Call once after
  /// construction (the runtimes do).
  void start();

  // ---------- mutator API ----------
  ObjectSeq create_object(std::size_t payload_bytes = 0);
  void add_root(ObjectSeq seq);
  void remove_root(ObjectSeq seq);
  void add_local_ref(ObjectSeq from, ObjectSeq to);
  void remove_local_ref(ObjectSeq from, ObjectSeq to);
  /// Drops one occurrence of a held remote reference.
  void remove_remote_ref(ObjectSeq from, RefId ref);

  /// Asynchronous remote invocation through `via` (a reference this process
  /// holds). Arguments are exported per the model above; with third-party
  /// args the message leaves only after all AddScion handshakes complete.
  /// `payload_bytes` simulates marshalled by-value argument data.
  /// Returns the call id.
  std::uint64_t invoke(ObjectSeq caller, RefId via, InvokeEffect effect,
                       std::vector<ArgRef> args = {}, bool want_reply = true,
                       std::size_t payload_bytes = 0);

  // ---------- direct graph construction (scenario/test setup) ----------
  /// Exports local object `target` to `holder`: creates the scion here and
  /// returns the descriptor the holder can install. Models a reference that
  /// was handed out by an earlier, already-completed invocation.
  ExportedRef export_own_object(ObjectSeq target, ProcessId holder);
  /// Installs an exported reference into `from`'s fields (stub side).
  RefId install_ref(ObjectSeq from, const ExportedRef& ref);
  /// Adds another holder for a reference this process already has a stub
  /// for (two objects sharing one proxy, as in the paper's Fig. 4).
  void hold_existing_ref(ObjectSeq from, RefId ref);

  // ---------- collector driving (the runtimes call these on timers; tests
  // may call them directly for precise interleavings) ----------
  void run_lgc();
  /// Synchronous snapshot: capture, persist (serialize + store write, only
  /// with a `snapshot_dir`) and summarize inline, publishing before
  /// returning. Cancels any in-flight pipeline pass first (its stale result
  /// is discarded), so tests and the model checker see deterministic,
  /// immediately-visible summaries.
  void take_snapshot();
  /// Pipelined snapshot: captures synchronously, then persists (when
  /// configured) and summarizes off the critical path, publishing the
  /// summary back through an Env completion event (the detector keeps the
  /// previous version meanwhile). Single-in-flight: a request while one is
  /// in flight is coalesced (re-captured when the publish lands). Falls back
  /// to take_snapshot() when ProcessConfig::snapshot_pipeline is off. This
  /// is what the periodic snapshot tick drives.
  void request_snapshot();
  void run_dcda_scan();

  /// Restores the summarized snapshot from the persistent store (config
  /// `snapshot_dir`), e.g. after a restart. Returns false when nothing
  /// usable is on disk. Safe: a stale summary only delays detection (the
  /// IC rules reject anything the mutator has touched since).
  bool recover_summary_from_store();

  /// Full crash recovery: reloads heap, roots, stub and scion tables AND the
  /// detector's summary from the last persisted snapshot. Must be called on a
  /// freshly constructed Process (restart path) before start(). Returns false
  /// (leaving the process empty — a cold start) when nothing usable is on
  /// disk. The restored state is exactly the state the persisted snapshot
  /// describes, so in-flight CDMs derived from it stay consistent.
  bool recover_from_store();

  /// Membership notification: `crashed` went down. Aborts every in-flight
  /// detection this process initiated (its CDMs may have touched the crashed
  /// process); the periodic scan restarts surviving candidates later.
  void on_peer_crashed(ProcessId crashed);

  /// Commits `peer` permanently dead NOW: drops all scions it holds (the
  /// next mark-sweep reclaims whatever only it kept alive), retires all
  /// stubs toward it, aborts and re-quarantines in-flight detections,
  /// purges batcher/backoff/peer-health state, and installs an eviction
  /// tombstone at the highest incarnation ever heard from it. Normally
  /// driven by the peer_death_timeout escalation inside run_lgc; public so
  /// tests and operators can force an eviction. Idempotent.
  void evict_peer(ProcessId peer);

  /// True once a peer rejected this incarnation with an Evicted NACK. The
  /// only way forward is to stop and restart under a fresh incarnation;
  /// everything this process sends meanwhile is rejected by the evictor.
  bool self_evicted() const { return self_evicted_; }

  /// Fires (once) when the first Evicted NACK aimed at this incarnation
  /// arrives; `evictor` is the rejecting peer. The node runtime uses it to
  /// trigger an orderly exit-and-restart.
  void set_self_evicted_hook(std::function<void(ProcessId evictor)> fn) {
    self_evicted_hook_ = std::move(fn);
  }

  /// Fires after evict_peer() finished purging local state; the node
  /// runtime uses it to tear down the transport connection and its queues.
  void set_peer_evicted_hook(std::function<void(ProcessId peer)> fn) {
    peer_evicted_hook_ = std::move(fn);
  }

  /// Deletes the scion `ref`; the next LGC reclaims whatever only it kept
  /// alive. No-op for an unknown ref.
  void drop_scion(RefId ref);

  // ---------- message entry point ----------
  void deliver(const Envelope& env);

  /// Receives every delivered envelope whose tag is in kReservedTags
  /// (benches and tests only; production never registers one).
  using ReservedHandler = std::function<void(ProcessId src, std::span<const std::byte> bytes)>;
  void set_reserved_handler(ReservedHandler fn) { reserved_handler_ = std::move(fn); }
  /// Sends an already-encoded message the way send() sends an unbatchable
  /// kind: flushes the open batch toward `dst` first, so order is kept.
  void send_encoded(ProcessId dst, std::vector<std::byte> bytes);

  /// Flushes every open control-message batch (drain/shutdown path: queued
  /// CDMs/NSS/acks must reach the wire before the transport stops).
  void flush_batches();

  // ---------- introspection ----------
  Heap& heap() { return heap_; }
  const Heap& heap() const { return heap_; }
  const StubTable& stubs() const { return stubs_; }
  const ScionTable& scions() const { return scions_; }
  Detector& detector() { return *detector_; }
  const Detector& detector() const { return *detector_; }
  std::shared_ptr<const SummarizedGraph> current_summary() const { return summary_; }
  /// True while a pipelined snapshot is between capture and publish.
  bool snapshot_in_flight() const { return pipeline_ && pipeline_->in_flight(); }
  /// Waits out a running pipeline pass (its persist included) and drops any
  /// result not yet published. For shutdown, after the actor loop stopped:
  /// no snapshot stage runs again until the next request.
  void cancel_snapshot() { pipeline_->cancel_in_flight(); }
  SimTime now() const { return env_.now(); }
  Env& env() { return env_; }
  std::size_t pending_exports() const { return handshakes_.size(); }
  PeerHealthTracker& peer_health() { return peer_health_; }
  const PeerHealthTracker& peer_health() const { return peer_health_; }
  Batcher& batcher() { return *batcher_; }
  const Batcher& batcher() const { return *batcher_; }

 private:
  struct PendingInvoke {
    std::uint64_t call_id = 0;
    ObjectSeq caller = kNoObject;
    RefId via = kNoRef;
    InvokeEffect effect = InvokeEffect::kTouch;
    std::vector<ExportedRef> args;
    std::size_t payload_bytes = 0;
    std::set<std::uint64_t> waiting;  // unacked handshake ids
    bool want_reply = true;
  };

  struct Handshake {
    std::uint64_t id = 0;
    std::uint64_t call_id = 0;   // the invocation waiting on this handshake
    AddScionMsg msg;
    ProcessId owner = kNoProcess;
    RefId pinned_stub = kNoRef;  // held stub pinned for the duration
    int retries = 0;
  };

  /// The last NewSetStubs sent to a contact: its export sequence, the
  /// listing version it carried, when it left, how many refs it listed and
  /// which LGC run sent it (0: an NssSolicit answer).
  struct NssSent {
    std::uint64_t seq = 0;
    std::uint64_t version = 0;
    SimTime at = 0;
    std::size_t refs = 0;
    std::uint64_t lgc = 0;
  };

  RefId fresh_ref_id() { return make_ref_id(pid_, next_ref_counter_++); }

  void send(ProcessId dst, const MessagePayload& msg);
  /// Stamps `msg` with the next export sequence toward `dst`, records the
  /// listing it carries (version, size, the sending LGC run `lgc`) and
  /// sends it.
  void send_new_set_stubs(ProcessId dst, NewSetStubsMsg& msg, std::uint64_t lgc);

  // Message handlers.
  void dispatch(ProcessId src, const MessagePayload& msg);
  void on_batch(ProcessId src, const BatchMsg& msg);
  void on_invoke(ProcessId src, const InvokeMsg& msg);
  void on_reply(ProcessId src, const ReplyMsg& msg);
  void on_new_set_stubs(ProcessId src, const NewSetStubsMsg& msg);
  void on_add_scion(ProcessId src, const AddScionMsg& msg);
  void on_add_scion_ack(ProcessId src, const AddScionAckMsg& msg);
  void on_cdm(ProcessId src, const CdmMsg& msg);
  void on_evicted_nack(ProcessId src, const EvictedNackMsg& msg);
  void on_nss_solicit(ProcessId src);

  /// Permanent-failure escalation, run at the top of every LGC. Contacts and
  /// scion holders silent for one probe interval (`peer_death_timeout_us /
  /// (suspect_after_failures + 1)`) get one NssSolicit per interval; a
  /// probe unanswered for an interval is a failure strike, and a suspected
  /// peer that left a probe unanswered for the whole timeout is evicted
  /// (see the comment in the definition).
  void maybe_evict_peers();

  // Export machinery.
  ExportedRef begin_third_party_export(RefId held, ProcessId receiver,
                                       std::uint64_t call_id, std::uint64_t* handshake_out);
  void retry_handshake(std::uint64_t id);
  /// Delay until retry number `attempt` of a handshake: exponential with
  /// deterministic jitter when adaptive, the fixed interval otherwise.
  SimTime handshake_retry_delay(int attempt);
  /// A detection for `candidate` timed out: exponentially back off its next
  /// launch (lossy/partitioned links should not be hammered at scan rate).
  /// No-op once the scion is gone.
  void note_detection_timeout(RefId candidate);
  void abandon_invoke(std::uint64_t call_id);
  void maybe_flush_invoke(std::uint64_t call_id);
  void really_send_invoke(PendingInvoke&& inv);
  void pin_stub(RefId ref);
  void unpin_stub(RefId ref);

  // DCDA hook.
  void on_cycle_found(DetectionId id, RefId candidate, std::uint64_t expected_ic);

  /// Publish hop of both snapshot paths: installs the summary, hands it to
  /// the detector, and re-captures if a pipelined request was coalesced.
  void adopt_summary(SnapshotPipeline::Stages s);
  /// Shared head of both snapshot paths: captures and stamps the version.
  SnapshotData capture_for_snapshot(std::uint64_t* version_out, SimTime* vt_out);
  /// Shared head of both recovery paths: reads and decodes the latest
  /// persisted snapshot and installs its summary for the detector. Returns
  /// the decoded snapshot, or nullopt (nothing installed) when nothing
  /// usable is on disk.
  std::optional<SnapshotData> install_stored_summary();

  // Periodic task drivers.
  void lgc_tick();
  void snapshot_tick();
  void dcda_tick();

  ProcessId pid_;
  ProcessConfig cfg_;
  Env& env_;
  Incarnation incarnation_ = 0;

  Heap heap_;
  StubTable stubs_;
  ScionTable scions_;

  std::uint64_t next_ref_counter_ = 1;
  std::uint64_t next_call_id_ = 1;
  std::uint64_t next_handshake_ = 1;
  std::map<ProcessId, NssSent> nss_sent_;
  std::uint64_t lgc_run_ = 0;  // LGC runs so far; numbers them from 1

  std::map<std::uint64_t, PendingInvoke> pending_invokes_;
  std::map<std::uint64_t, Handshake> handshakes_;
  PeerHealthTracker peer_health_{cfg_, env_.metrics()};
  std::unique_ptr<Batcher> batcher_;
  /// call_id → (callee, send time); rmi_rtt_us samples. Bounded; calls
  /// whose reply never arrives age out by insertion order (ids ascend).
  std::map<std::uint64_t, std::pair<ProcessId, SimTime>> inflight_calls_;
  std::map<RefId, std::uint32_t> pinned_;  // stub pin counts
  std::set<RefId> pinned_set_;             // cached key set for the LGC

  /// Highest incarnation ever seen (envelope src_inc) per peer: the value an
  /// eviction tombstones, so the zombie's *current* incarnation — not just
  /// some ancient one — is rejected.
  std::map<ProcessId, Incarnation> peer_incs_;
  /// When the eviction escalation started watching (first run_lgc with
  /// eviction enabled); the silence baseline for peers we have never heard
  /// from at all.
  SimTime evict_watch_since_ = 0;
  /// Lease probes to a silent watched peer: when the latest NssSolicit
  /// left, and when the first one left that the peer has not answered (the
  /// conviction clock; a message heard since then resets it). A latest
  /// probe newer than the peer's last_heard an interval later went
  /// unanswered — a failure strike.
  struct Probes {
    SimTime first = 0;
    SimTime last = 0;
  };
  std::map<ProcessId, Probes> nss_solicits_;
  bool self_evicted_ = false;
  std::function<void(ProcessId)> self_evicted_hook_;
  std::function<void(ProcessId)> peer_evicted_hook_;
  ReservedHandler reserved_handler_;

  BinarySerializer serializer_;
  SccSummarizer summarizer_;
  std::unique_ptr<SnapshotStore> store_;  // null when persistence is off
  std::shared_ptr<const SummarizedGraph> summary_;
  std::uint64_t snapshot_version_ = 0;

  std::unique_ptr<Detector> detector_;
  /// Declared after the serializer/summarizer/store it borrows: destroyed
  /// first, which joins the background worker before its inputs die.
  std::unique_ptr<SnapshotPipeline> pipeline_;
  bool started_ = false;
};

}  // namespace adgc
