// Counters describing protocol activity.
//
// One Metrics instance per process plus one aggregate per runtime. Counters
// are atomics so the threaded runtime can bump them without locks; in the
// deterministic simulator they are simply uncontended.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/histogram.h"

namespace adgc {

/// A relaxed-ordering counter. Copyable so Metrics snapshots can be taken.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(other.get()) {}
  Counter& operator=(const Counter& other) {
    v_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  /// Gauge update: one store, so a concurrent reader sees the old or the
  /// new value, never an intermediate.
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Every counter and histogram is declared once, in the two lists below;
// the struct fields and the name tables behind merge/report/reset and the
// Prometheus exposition are generated from them. Names are part of the
// exported interface (scrapers and benches read them): never rename one.
// clang-format off
#define ADGC_METRICS_COUNTERS(X)                                                             \
  /* Mutator / RMI. */                                                                       \
  X(invocations_sent)                                                                        \
  X(invocations_received)                                                                    \
  X(invocations_dropped)          /* delivered for a ref with no live scion */               \
  X(replies_sent)                                                                            \
  X(replies_received)                                                                        \
  X(refs_exported)                                                                           \
  X(refs_imported)                                                                           \
  /* Acyclic DGC. */                                                                         \
  X(stubs_created)                                                                           \
  X(stubs_deleted)                                                                           \
  X(scions_created)                                                                          \
  X(scions_deleted_acyclic)       /* via NewSetStubs */                                      \
  X(scions_deleted_cyclic)        /* via DCDA cycle-found */                                 \
  X(new_set_stubs_sent)                                                                      \
  X(new_set_stubs_unchanged)      /* NSS not sent: listing unchanged and fresh */            \
  X(new_set_stubs_coalesced)      /* NSS held one LGC: large listing sent the run before */  \
  X(new_set_stubs_received)                                                                  \
  X(add_scion_sent)                                                                          \
  X(add_scion_retries)                                                                       \
  X(add_scion_abandoned)          /* handshake gave up after max retries */                  \
  /* Local GC. */                                                                            \
  X(lgc_runs)                                                                                \
  X(objects_allocated)                                                                       \
  X(objects_reclaimed)                                                                       \
  /* Snapshots. */                                                                           \
  X(snapshots_taken)                                                                         \
  X(snapshot_bytes)                                                                          \
  X(summarizations)                                                                          \
  X(snapshots_coalesced)          /* request while one in flight (pipeline) */               \
  X(snapshot_persist_failures)    /* store write/publish failed (summary still published) */ \
  /* DCDA. */                                                                                \
  X(detections_started)                                                                      \
  X(detections_cycle_found)                                                                  \
  X(detections_aborted_ic)        /* invocation-counter mismatch */                          \
  X(detections_aborted_local)     /* Local.Reach stub hit */                                 \
  X(detections_dropped_no_scion)  /* CDM to scion absent from snapshot */                    \
  X(detections_dropped_dup)       /* derivation added nothing */                             \
  X(cdms_deduped)                 /* identical CDM seen recently */                          \
  X(detections_timed_out)                                                                    \
  X(detections_aborted_crash)     /* in-flight when a peer crashed */                        \
  X(cdms_sent)                                                                               \
  X(cdms_received)                                                                           \
  X(cdm_bytes)                                                                               \
  /* Network. */                                                                             \
  X(messages_sent)                                                                           \
  X(messages_delivered)                                                                      \
  X(messages_lost)                                                                           \
  X(messages_duplicated)                                                                     \
  X(bytes_sent)                                                                              \
  /* Adaptive degradation (per-peer health, backoff, load shedding). */                      \
  X(peer_suspect_transitions)     /* failures crossed suspect_after_failures */              \
  X(cdms_shed)                    /* CDM dropped at a full TCP write queue */                \
  X(new_set_stubs_shed)           /* NewSetStubs dropped at a full TCP write queue */        \
  X(detections_deferred_backoff)  /* candidate skipped (relaunch backoff) */                 \
  X(candidates_deprioritized)     /* candidate ranked last (suspected first hop) */          \
  /* Permanent-failure eviction. */                                                          \
  X(peers_evicted)                /* peers committed dead locally */                         \
  X(eviction_scions_dropped)      /* scions held by an evicted peer */                       \
  X(eviction_stubs_retired)       /* stubs toward an evicted peer */                         \
  X(detections_aborted_eviction)  /* in-flight detections torn down by eviction */           \
  X(eviction_nacks_sent)          /* Evicted NACKs emitted at rejection */                   \
  X(eviction_nacks_received)      /* zombie side: told to restart */                         \
  X(messages_rejected_evicted)    /* traffic from a tombstoned incarnation */                \
  X(nss_solicits_sent)            /* probes to silent contacts and holders */                \
  X(peer_health_slots)            /* gauge: tracked peers after last LGC */                  \
  X(peer_health_slots_pruned)     /* idle slots reclaimed */                                 \
  /* Control-plane batching (per-peer coalescing of CDM / NSS / AddScionAck). */             \
  X(batches_sent)                 /* flushes that put a real batch (>=2) on the wire */      \
  X(batch_singletons)             /* flushes degenerated to one plain message */             \
  X(batched_messages)             /* control messages that entered a batch */                \
  X(batch_flush_size)             /* flush reasons... */                                     \
  X(batch_flush_count)                                                                       \
  X(batch_flush_deadline)                                                                    \
  X(batch_flush_priority)         /* invoke/reply/AddScion to same peer forced it */         \
  X(batch_flush_burst)            /* end of a CDM scan/forward burst */                      \
  X(batch_flush_drain)            /* shutdown/drain flush */                                 \
  X(batch_bytes_saved)            /* (n-1) * frame header per flushed batch */               \
  X(batches_received)                                                                        \
  X(batch_messages_received)      /* messages unpacked from received batches */              \
  X(batches_poisoned)             /* batch dropped whole: some item undecodable */           \
  X(arena_acquires)               /* batch buffers handed out by the arena */                \
  X(arena_reuses)                 /* ...of which satisfied from the free list */             \
  /* TCP transport (real-socket deployment). */                                              \
  X(tcp_connects)                 /* outbound connect() attempts */                          \
  X(tcp_accepts)                  /* inbound connections accepted */                         \
  X(tcp_disconnects)              /* connections closed on error/EOF */                      \
  X(tcp_reconnect_backoffs)       /* reconnects deferred by the backoff series */            \
  X(tcp_frames_sent)                                                                         \
  X(tcp_frames_received)                                                                     \
  X(tcp_frames_rejected)          /* framing errors (magic/version/CRC/length) */            \
  X(tcp_hello_sent)                                                                          \
  X(tcp_hello_received)                                                                      \
  /* Crash/restart fault model. */                                                           \
  X(process_crashes)                                                                         \
  X(process_restarts)                                                                        \
  X(restarts_recovered)           /* restart found a usable snapshot */                      \
  X(messages_dropped_crashed)     /* destination was down */                                 \
  X(messages_stale_incarnation)   /* from/to a dead incarnation */

// Latency / size distributions (log-bucketed lock-free histograms; see
// src/obs/histogram.h). Recorded at the hot spots of every runtime and
// exported — alongside the counters — through the admin endpoint's
// Prometheus /metrics exposition (src/obs/prom.h).
#define ADGC_METRICS_HISTOGRAMS(X)                                                         \
  X(rmi_rtt_us)                   /* invoke → reply round trip (Env clock) */              \
  X(lgc_pause_us)                 /* run_lgc wall time before the NSS build */             \
  X(snapshot_capture_us)          /* heap/table capture (always mutator-visible) */        \
  X(snapshot_persist_us)          /* serialize + store write (persisted snapshots only) */ \
  X(snapshot_summarize_us)        /* summarization wall time */                            \
  X(detection_lifetime_us)        /* initiator-observed detection lifetime */              \
  X(batch_flush_msgs)             /* messages per control-plane batch flush */             \
  X(tcp_writeq_depth)             /* per-peer write queue depth at enqueue */
// clang-format on

/// All protocol counters and histograms; report() prints non-zero entries.
struct Metrics {
#define ADGC_METRICS_DECLARE(name) Counter name;
  ADGC_METRICS_COUNTERS(ADGC_METRICS_DECLARE)
#undef ADGC_METRICS_DECLARE
#define ADGC_METRICS_DECLARE(name) Histogram name;
  ADGC_METRICS_HISTOGRAMS(ADGC_METRICS_DECLARE)
#undef ADGC_METRICS_DECLARE

  /// Adds every counter and histogram of `other` into this (aggregation
  /// across processes).
  void merge(const Metrics& other);

  /// Multi-line human-readable dump of the non-zero counters (sorted by
  /// name, deterministically) followed by the non-empty histograms.
  std::string report(const std::string& prefix = "") const;

  /// Zeroes every counter and histogram.
  void reset();

  /// Visits every counter as (name, value) in sorted name order.
  void for_each_counter(
      const std::function<void(const char*, std::uint64_t)>& fn) const;
  /// Visits every histogram as (name, histogram) in sorted name order.
  void for_each_histogram(
      const std::function<void(const char*, const Histogram&)>& fn) const;
};

}  // namespace adgc
