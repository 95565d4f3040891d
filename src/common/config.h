// Tunables for the runtime, the collectors and the simulated network.
//
// Times are in simulated microseconds (the deterministic simulator) or real
// microseconds (the threaded runtime); both runtimes interpret the same
// config.
#pragma once

#include <cstdint>
#include <string>

namespace adgc {

using SimTime = std::uint64_t;  // microseconds

/// Fault-injection and latency model of the network.
struct NetworkConfig {
  /// Mean one-way latency (exponentially distributed around this mean).
  SimTime mean_latency_us = 500;
  /// Fixed minimum latency added to every message.
  SimTime min_latency_us = 50;
  /// Probability a message is silently dropped.
  double loss_probability = 0.0;
  /// Probability a delivered message is delivered twice.
  double duplicate_probability = 0.0;
  /// When true, per-link FIFO order is preserved; when false, each message
  /// gets an independent latency draw and may overtake earlier ones.
  bool fifo_links = false;
};

/// Per-process collector scheduling and DCDA policy.
struct ProcessConfig {
  // --- acyclic DGC ---
  /// Arms the periodic LGC/snapshot/scan timers at start(). The model
  /// checker disables this entirely: its Explorer schedules every collector
  /// run as an explicit decision, and even a parked timer would jump the
  /// clock (and thus every grace/expiry guard) when executed.
  bool periodic_collectors_enabled = true;
  /// Period between local GC runs (each run also sends NewSetStubs to the
  /// contacts whose listing changed or is `scion_pending_grace_us` old).
  SimTime lgc_period_us = 20'000;
  /// AddScion handshake retry interval (message-loss tolerance).
  SimTime add_scion_retry_us = 5'000;

  // --- adaptive degradation (per-peer health, backoff) ---
  /// Master switch. When off, every retry uses its fixed interval and
  /// candidate order ignores peer suspicion — the pre-adaptive baseline the
  /// chaos harness compares against.
  bool adaptive_faults = true;
  /// Cap on the per-candidate detection re-launch backoff (base is
  /// `dcda_scan_period_us`, doubled per consecutive timeout).
  SimTime detection_backoff_cap_us = 4'000'000;
  /// A peer is suspected once this many requests (retries, refused
  /// connects, NssSolicit probes) went unanswered since it was last heard
  /// from (see src/net/peer_health.h).
  std::uint32_t suspect_after_failures = 3;

  // --- permanent-failure eviction ---
  /// Escalates unanswered requests into committed death. Every contact and
  /// scion holder silent for one probe interval, this timeout divided by
  /// `suspect_after_failures + 1`, is sent one NssSolicit per interval; a
  /// probe unanswered for an interval is a failure strike. A suspected peer
  /// that left a probe unanswered for this whole timeout is evicted (its
  /// scions dropped, stubs toward it retired, detections crossing it
  /// aborted, transport/batcher state purged) and tombstoned by
  /// incarnation: about one interval plus one timeout after it was last
  /// heard from. An outage shorter than the timeout minus one interval is
  /// ridden out, whatever the phase. A false positive degrades
  /// to a forced crash/restart of the accused peer, never to a dangling
  /// reference, but restarts are not free. 0 disables eviction entirely.
  SimTime peer_death_timeout_us = 0;

  /// Grace period protecting a *pending* (never yet confirmed by its holder)
  /// scion from NewSetStubs deletion while the reference may still be in
  /// flight toward the holder. Also the age at which a holder re-sends an
  /// unchanged NewSetStubs listing.
  SimTime scion_pending_grace_us = 300'000;
  /// Owner-side expiry of never-confirmed scions, as a multiple of the
  /// grace period. Covers references whose delivery was lost outright (the
  /// would-be holder never learns of them, so no NewSetStubs will ever
  /// mention them). Relies on the standard bounded-message-lifetime
  /// assumption of reference-listing collectors.
  std::uint32_t scion_pending_expiry_factor = 10;

  // --- snapshots / summarization ---
  /// Period between snapshot + summarization passes.
  SimTime snapshot_period_us = 50'000;
  /// When non-empty, every snapshot is also persisted here (the paper's
  /// snapshots-on-disk, §2.2) with bounded retention, and the process can
  /// recover its summarized view from disk after a restart.
  std::string snapshot_dir;
  /// Snapshot files kept per process when persisting.
  std::size_t snapshot_retain = 2;
  /// Run serialize → store-write → summarize off the mutator path: the
  /// periodic snapshot tick captures synchronously, hands the capture to the
  /// SnapshotPipeline, and the summary publishes back later while the
  /// detector keeps using the previous version (paper-safe: ICs guard
  /// against mutation, DCDA tolerates stale snapshots, §4). Direct
  /// take_snapshot() calls remain fully synchronous either way.
  bool snapshot_pipeline = true;
  /// Deterministic sim only: modeled delay between a pipelined snapshot
  /// request and its summary publish (the completion is a scheduled
  /// self-event, so traces stay a pure function of (config, seed)). The
  /// real runtimes publish when their background worker finishes instead.
  SimTime snapshot_pipeline_latency_us = 1'000;

  // --- DCDA ---
  /// Whether the cycle detector runs at all (Table 1 baseline turns the
  /// whole DGC off; ablations turn only the DCDA off).
  bool dcda_enabled = true;
  /// Period between candidate scans at each process.
  SimTime dcda_scan_period_us = 60'000;
  /// A scion becomes a cycle candidate only after its invocation counter has
  /// been stable for this long (the paper's "not invoked for a certain
  /// amount of time" heuristic).
  SimTime candidate_quarantine_us = 40'000;
  /// Initiator-side detection timeout; a lost CDM merely delays collection.
  SimTime detection_timeout_us = 2'000'000;
  /// Hard cap on CDM hops (safety net against pathological graphs).
  std::uint32_t cdm_hop_limit = 4096;
  /// Max detections a process keeps in flight simultaneously.
  std::uint32_t max_inflight_detections = 64;
  /// TEST-ONLY planted bug (model-checker self-test): treat every invocation
  /// counter as zero inside the DCDA, disabling rule 3, the algebra IC-match
  /// abort and the last-moment scion revalidation — i.e. run the detector as
  /// if the paper's counter protection did not exist. UNSAFE by design: with
  /// this on, the Fig. 2 mutator race produces a false cycle, which is
  /// exactly what the model checker's safety oracle must catch. Never enable
  /// outside the planted-bug self-test.
  bool dcda_unsafe_ignore_ic = false;
  /// Bounded best-effort cache of recently processed CDMs (by content hash).
  /// Duplicate CDMs — which arise combinatorially on densely mutually-linked
  /// cycles, since the same algebra can be reached along many branch
  /// orders — are dropped. Dropping is always safe (worst case a detection
  /// times out and is retried). 0 disables the cache.
  std::uint32_t cdm_dedup_cache_size = 4096;

  // --- control-plane batching ---
  /// Coalesce outbound control messages (CDMs, NewSetStubs, AddScion acks)
  /// into per-peer batches: one Envelope / frame header / CRC / write() per
  /// flush instead of per message. Invocations, replies and AddScion
  /// requests are never batched; sending one of those to a peer first
  /// flushes the peer's open batch so relative order is preserved.
  bool batching_enabled = true;
  /// Flush when a batch reaches this many messages...
  std::uint32_t batch_max_msgs = 32;
  /// ...or this many payload bytes (whichever comes first)...
  std::uint32_t batch_max_bytes = 16'384;
  /// ...or when the oldest queued message has waited this long. Bounds the
  /// extra latency batching may add to any control message.
  SimTime batch_flush_us = 200;

  // --- instrumentation toggles (Table 1) ---
  /// When false the runtime skips all stub/scion bookkeeping; models the
  /// unmodified Rotor baseline of Table 1.
  bool dgc_enabled = true;

  // --- observability ---
  /// Capacity (events) of the per-process structured-trace ring buffer
  /// (detection spans, CDM hops, evictions, crash/restart...). Oldest
  /// events are overwritten when full. 0 disables tracing entirely — no
  /// ring is allocated and every record becomes a null-pointer no-op (the
  /// obs-off leg of the overhead benchmark).
  std::size_t trace_ring_capacity = 4096;
};

/// Whole-system configuration.
struct RuntimeConfig {
  NetworkConfig net;
  ProcessConfig proc;
  std::uint64_t seed = 42;

  std::string describe() const;
};

}  // namespace adgc
