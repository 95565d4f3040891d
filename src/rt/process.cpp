#include "src/rt/process.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/dcda/candidates.h"
#include "src/lgc/mark_sweep.h"
#include "src/snapshot/snapshot.h"

namespace adgc {

namespace {

/// AddScion re-sends before the export is abandoned (losing an export
/// leaks its target, it never corrupts).
constexpr int kAddScionMaxRetries = 20;
/// Cap on the exponential backoff of AddScion re-sends, which starts at
/// `add_scion_retry_us`.
constexpr SimTime kBackoffCapUs = 200'000;
/// Peer-health slots idle (and not suspected) this long are pruned, which
/// bounds survivor memory under peer churn.
constexpr SimTime kPeerHealthIdlePruneUs = 600'000'000;

}  // namespace

Process::Process(ProcessId pid, const ProcessConfig& cfg, Env& env, Incarnation incarnation)
    : pid_(pid), cfg_(cfg), env_(env), incarnation_(incarnation) {
  if (incarnation_ > 0) {
    // Partition the identifier spaces by incarnation: the RefId counter field
    // is 40 bits wide (see make_ref_id), so the incarnation takes its top 8
    // bits; ObjectSeq is a full 64-bit space. Identifiers minted by a dead
    // incarnation can then never collide with the recovered one's.
    next_ref_counter_ = (std::uint64_t{incarnation_} << 32) + 1;
    heap_.set_next_seq_floor((std::uint64_t{incarnation_} << 40) + 1);
  }
  batcher_ = std::make_unique<Batcher>(cfg_, env_);
  Detector::Hooks hooks;
  hooks.send_cdm = [this](ProcessId dst, const CdmMsg& msg) { send(dst, msg); };
  hooks.cdm_burst_end = [this] {
    batcher_->flush_cdm_batches(Batcher::FlushReason::kBurst);
  };
  hooks.cycle_found = [this](DetectionId id, RefId candidate, std::uint64_t expected_ic) {
    on_cycle_found(id, candidate, expected_ic);
  };
  detector_ = std::make_unique<Detector>(pid_, cfg_, env_.metrics(), std::move(hooks));
  detector_->set_trace(env_.trace());
  if (!cfg_.snapshot_dir.empty()) {
    store_ = std::make_unique<SnapshotStore>(cfg_.snapshot_dir, cfg_.snapshot_retain);
  }
  pipeline_ = std::make_unique<SnapshotPipeline>(
      pid_, cfg_, env_, serializer_, summarizer_, store_.get(),
      [this](SnapshotPipeline::Stages s) { adopt_summary(std::move(s)); });
}

Process::~Process() = default;

void Process::start() {
  if (started_) return;
  started_ = true;
  if (!cfg_.periodic_collectors_enabled) return;
  // De-phase the periodic tasks across processes (deterministically).
  env_.schedule(env_.rng().below(cfg_.lgc_period_us) + 1, [this] { lgc_tick(); });
  env_.schedule(env_.rng().below(cfg_.snapshot_period_us) + 1, [this] { snapshot_tick(); });
  if (cfg_.dcda_enabled) {
    env_.schedule(env_.rng().below(cfg_.dcda_scan_period_us) + 1, [this] { dcda_tick(); });
  }
}

void Process::lgc_tick() {
  run_lgc();
  env_.schedule(cfg_.lgc_period_us, [this] { lgc_tick(); });
}

void Process::snapshot_tick() {
  request_snapshot();
  env_.schedule(cfg_.snapshot_period_us, [this] { snapshot_tick(); });
}

void Process::dcda_tick() {
  run_dcda_scan();
  env_.schedule(cfg_.dcda_scan_period_us, [this] { dcda_tick(); });
}

void Process::send(ProcessId dst, const MessagePayload& msg) {
  // Control-plane coalescing: batchable kinds (CDM, NewSetStubs,
  // AddScionAck) queue into the peer's open batch; anything else is
  // latency-critical and flushes that batch first, preserving the relative
  // order of control vs. subsequent priority traffic on the link.
  if (batcher_->offer(dst, msg)) return;
  batcher_->flush_peer(dst, Batcher::FlushReason::kPriority);
  env_.send(dst, msg);
}

void Process::send_encoded(ProcessId dst, std::vector<std::byte> bytes) {
  batcher_->flush_peer(dst, Batcher::FlushReason::kPriority);
  env_.send_encoded(dst, std::move(bytes));
}

// ---------------------------------------------------------------- mutator

ObjectSeq Process::create_object(std::size_t payload_bytes) {
  metrics().objects_allocated.add();
  return heap_.allocate(payload_bytes);
}

void Process::add_root(ObjectSeq seq) { heap_.add_root(seq); }
void Process::remove_root(ObjectSeq seq) { heap_.remove_root(seq); }

void Process::add_local_ref(ObjectSeq from, ObjectSeq to) { heap_.add_local_field(from, to); }

void Process::remove_local_ref(ObjectSeq from, ObjectSeq to) {
  heap_.remove_local_field(from, to);
}

void Process::remove_remote_ref(ObjectSeq from, RefId ref) {
  heap_.remove_remote_field(from, ref);
}

std::uint64_t Process::invoke(ObjectSeq caller, RefId via, InvokeEffect effect,
                              std::vector<ArgRef> args, bool want_reply,
                              std::size_t payload_bytes) {
  StubEntry* stub = stubs_.find(via);
  if (!stub) throw std::invalid_argument("invoke: unknown reference");

  PendingInvoke inv;
  inv.call_id = next_call_id_++;
  inv.caller = caller;
  inv.via = via;
  inv.effect = effect;
  inv.payload_bytes = payload_bytes;
  inv.want_reply = want_reply;
  const ProcessId receiver = stub->target.owner;

  for (const ArgRef& arg : args) {
    if (arg.local != kNoObject) {
      inv.args.push_back(export_own_object(arg.local, receiver));
    } else {
      std::uint64_t hs = 0;
      inv.args.push_back(begin_third_party_export(arg.remote, receiver, inv.call_id, &hs));
      if (hs != 0) inv.waiting.insert(hs);
    }
  }

  const std::uint64_t id = inv.call_id;
  if (inv.waiting.empty()) {
    really_send_invoke(std::move(inv));
  } else {
    pending_invokes_.emplace(id, std::move(inv));
  }
  return id;
}

// ------------------------------------------------------------------ export

ExportedRef Process::export_own_object(ObjectSeq target, ProcessId holder) {
  if (!heap_.exists(target)) throw std::invalid_argument("export: no such object");
  ExportedRef out;
  out.ref = fresh_ref_id();
  out.target = ObjectId{pid_, target};
  if (cfg_.dgc_enabled) {
    scions_.ensure(out.ref, holder, target, env_.now());
    metrics().scions_created.add();
  }
  metrics().refs_exported.add();
  return out;
}

ExportedRef Process::begin_third_party_export(RefId held, ProcessId receiver,
                                              std::uint64_t call_id,
                                              std::uint64_t* handshake_out) {
  *handshake_out = 0;
  StubEntry* stub = stubs_.find(held);
  if (!stub) throw std::invalid_argument("export: reference not held");
  metrics().refs_exported.add();

  ExportedRef out;
  out.target = stub->target;
  if (stub->target.owner == receiver) {
    // The receiver owns the target: it will install a plain local field.
    out.ref = kNoRef;
    return out;
  }
  out.ref = fresh_ref_id();
  if (!cfg_.dgc_enabled) return out;

  Handshake hs;
  hs.id = next_handshake_++;
  hs.call_id = call_id;
  hs.owner = stub->target.owner;
  hs.pinned_stub = held;
  hs.msg.ref = out.ref;
  hs.msg.target_seq = stub->target.seq;
  hs.msg.holder = receiver;
  hs.msg.handshake = hs.id;
  pin_stub(held);
  send(hs.owner, hs.msg);
  metrics().add_scion_sent.add();
  const std::uint64_t id = hs.id;
  handshakes_.emplace(id, std::move(hs));
  env_.schedule(handshake_retry_delay(0), [this, id] { retry_handshake(id); });
  *handshake_out = id;
  return out;
}

SimTime Process::handshake_retry_delay(int attempt) {
  if (!cfg_.adaptive_faults) return cfg_.add_scion_retry_us;
  return backoff_delay(cfg_.add_scion_retry_us, kBackoffCapUs, attempt, env_.rng());
}

void Process::retry_handshake(std::uint64_t id) {
  auto it = handshakes_.find(id);
  if (it == handshakes_.end()) return;  // already acked
  Handshake& hs = it->second;
  peer_health_.on_timeout(hs.owner, env_.now());
  if (++hs.retries > kAddScionMaxRetries) {
    ADGC_ERROR("P" << pid_ << " abandoning export after " << hs.retries
                   << " AddScion retries (ref " << ref_to_string(hs.msg.ref) << ")");
    metrics().add_scion_abandoned.add();
    const std::uint64_t call_id = hs.call_id;
    unpin_stub(hs.pinned_stub);
    handshakes_.erase(it);
    abandon_invoke(call_id);
    return;
  }
  metrics().add_scion_retries.add();
  send(hs.owner, hs.msg);
  env_.schedule(handshake_retry_delay(hs.retries), [this, id] { retry_handshake(id); });
}

void Process::abandon_invoke(std::uint64_t call_id) {
  auto it = pending_invokes_.find(call_id);
  if (it == pending_invokes_.end()) return;
  // Tear down any other handshakes of the same call.
  for (std::uint64_t hs_id : it->second.waiting) {
    auto hit = handshakes_.find(hs_id);
    if (hit != handshakes_.end()) {
      unpin_stub(hit->second.pinned_stub);
      handshakes_.erase(hit);
    }
  }
  pending_invokes_.erase(it);
}

void Process::maybe_flush_invoke(std::uint64_t call_id) {
  auto it = pending_invokes_.find(call_id);
  if (it == pending_invokes_.end() || !it->second.waiting.empty()) return;
  PendingInvoke inv = std::move(it->second);
  pending_invokes_.erase(it);
  really_send_invoke(std::move(inv));
}

void Process::really_send_invoke(PendingInvoke&& inv) {
  StubEntry* stub = stubs_.find(inv.via);
  if (!stub) {
    ADGC_WARN("P" << pid_ << " dropping invocation: reference vanished");
    return;
  }
  InvokeMsg msg;
  msg.ref = inv.via;
  if (cfg_.dgc_enabled) {
    ++stub->ic;
  }
  msg.ic = stub->ic;
  msg.target = stub->target;
  msg.caller = ObjectId{pid_, inv.caller};
  msg.effect = inv.effect;
  msg.args = std::move(inv.args);
  msg.payload.assign(inv.payload_bytes, std::byte{0});
  msg.want_reply = inv.want_reply;
  msg.call_id = inv.call_id;
  metrics().invocations_sent.add();
  if (msg.want_reply) {
    // Remember the send time: the reply is an rmi_rtt_us sample.
    while (inflight_calls_.size() >= 512) inflight_calls_.erase(inflight_calls_.begin());
    inflight_calls_.emplace(msg.call_id,
                            std::make_pair(stub->target.owner, env_.now()));
  }
  send(stub->target.owner, msg);
}

RefId Process::install_ref(ObjectSeq from, const ExportedRef& ref) {
  if (ref.target.owner == pid_) {
    heap_.add_local_field(from, ref.target.seq);
    return kNoRef;
  }
  if (!stubs_.contains(ref.ref)) metrics().stubs_created.add();
  stubs_.ensure(ref.ref, ref.target);
  heap_.add_remote_field(from, ref.ref);
  metrics().refs_imported.add();
  return ref.ref;
}

void Process::hold_existing_ref(ObjectSeq from, RefId ref) {
  if (!stubs_.contains(ref)) throw std::invalid_argument("hold_existing_ref: no such stub");
  heap_.add_remote_field(from, ref);
}

void Process::pin_stub(RefId ref) {
  if (++pinned_[ref] == 1) pinned_set_.insert(ref);
}

void Process::unpin_stub(RefId ref) {
  auto it = pinned_.find(ref);
  if (it == pinned_.end()) return;
  if (--it->second == 0) {
    pinned_.erase(it);
    pinned_set_.erase(ref);
  }
}

// --------------------------------------------------------------- delivery

void Process::deliver(const Envelope& envelope) {
  const ProcessId src = envelope.src;
  {
    // Track the highest incarnation ever seen per peer: it is the value an
    // eviction tombstones, so the zombie's current incarnation is rejected.
    auto [it, fresh] = peer_incs_.try_emplace(src, envelope.src_inc);
    if (!fresh && envelope.src_inc > it->second) it->second = envelope.src_inc;
  }
  if (const auto dead_inc = peer_health_.evicted_incarnation(src)) {
    if (envelope.src_inc <= *dead_inc) {
      metrics().messages_rejected_evicted.add();
      const bool inbound_nack =
          !envelope.bytes.empty() &&
          envelope.bytes[0] == static_cast<std::byte>(MessageTag::kEvictedNack);
      ADGC_DEBUG("P" << pid_ << " rejecting traffic from evicted P" << src
                     << " (inc " << envelope.src_inc << " <= tombstone "
                     << *dead_inc << ")");
      if (!inbound_nack) {
        // Tell the zombie it has been committed dead. Sent through the raw
        // Env, not Process::send — the NACK must not resurrect health or
        // batcher slots for a peer we just purged. Never NACK a NACK, or two
        // processes that evicted each other would ping-pong forever.
        EvictedNackMsg nack;
        nack.evicted_incarnation = envelope.src_inc;
        metrics().eviction_nacks_sent.add();
        env_.send(src, nack);
      }
      return;
    }
    // Strictly newer incarnation: the peer restarted as the NACK demanded.
    // Readmit it — its references re-enter through the AddScion handshake.
    peer_health_.clear_tombstone(src);
    ADGC_INFO("P" << pid_ << " readmits P" << src << " at incarnation "
                  << envelope.src_inc << " (tombstone lifted)");
  }
  // Any inbound traffic is a liveness signal for the sending peer.
  peer_health_.on_heard(envelope.src, env_.now());
  if (reserved_handler_ && !envelope.bytes.empty() &&
      kReservedTags.contains(static_cast<std::uint8_t>(envelope.bytes[0]))) {
    reserved_handler_(src, envelope.bytes);
    return;
  }
  MessagePayload payload;
  try {
    payload = decode_message(envelope.bytes);
  } catch (const DecodeError& e) {
    ADGC_ERROR("P" << pid_ << " undecodable message from " << envelope.src << ": "
                   << e.what());
    return;
  }
  dispatch(envelope.src, payload);
}

void Process::dispatch(ProcessId src, const MessagePayload& payload) {
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, InvokeMsg>) {
          on_invoke(src, msg);
        } else if constexpr (std::is_same_v<T, ReplyMsg>) {
          on_reply(src, msg);
        } else if constexpr (std::is_same_v<T, NewSetStubsMsg>) {
          on_new_set_stubs(src, msg);
        } else if constexpr (std::is_same_v<T, AddScionMsg>) {
          on_add_scion(src, msg);
        } else if constexpr (std::is_same_v<T, AddScionAckMsg>) {
          on_add_scion_ack(src, msg);
        } else if constexpr (std::is_same_v<T, CdmMsg>) {
          on_cdm(src, msg);
        } else if constexpr (std::is_same_v<T, BatchMsg>) {
          on_batch(src, msg);
        } else if constexpr (std::is_same_v<T, EvictedNackMsg>) {
          on_evicted_nack(src, msg);
        } else if constexpr (std::is_same_v<T, NssSolicitMsg>) {
          on_nss_solicit(src);
        }
      },
      payload);
}

void Process::on_batch(ProcessId src, const BatchMsg& batch) {
  metrics().batches_received.add();
  // Unpack the whole batch BEFORE applying anything: if any item is
  // malformed (or a nested batch), the entire batch is dropped — a corrupt
  // slice must never apply a prefix of its messages.
  std::vector<MessagePayload> items;
  try {
    items = decode_batch_items(batch);
  } catch (const DecodeError& e) {
    metrics().batches_poisoned.add();
    ADGC_ERROR("P" << pid_ << " dropping poisoned batch from " << src << ": "
                   << e.what());
    return;
  }
  metrics().batch_messages_received.add(items.size());
  for (const MessagePayload& m : items) dispatch(src, m);
}

void Process::flush_batches() {
  batcher_->flush_all(Batcher::FlushReason::kDrain);
}

void Process::on_invoke(ProcessId src, const InvokeMsg& msg) {
  metrics().invocations_received.add();
  ScionEntry* scion = nullptr;
  if (cfg_.dgc_enabled) {
    scion = scions_.find(msg.ref);
    if (!scion) {
      // The scion was collected: the reference was dead. Never resurrect.
      metrics().invocations_dropped.add();
      ADGC_WARN("P" << pid_ << " invocation for collected scion "
                    << ref_to_string(msg.ref) << " from " << src);
      return;
    }
    if (msg.ic > scion->ic) {
      scion->ic = msg.ic;
      scion->last_ic_change = env_.now();
    }
    // No confirmation here: an older NewSetStubs from the holder, built
    // before it installed this reference, may still be in flight, and a
    // confirmed scion would not survive it. Only a listing confirms.
  }

  const ObjectSeq target_seq = scion ? scion->target : msg.target.seq;
  HeapObject* obj = heap_.find(target_seq);
  if (!obj) {
    metrics().invocations_dropped.add();
    ADGC_WARN("P" << pid_ << " invocation for missing object " << target_seq);
    return;
  }

  switch (msg.effect) {
    case InvokeEffect::kTouch:
      break;
    case InvokeEffect::kPinRoot:
      heap_.add_root(target_seq);
      break;
    case InvokeEffect::kUnpinRoot:
      heap_.remove_root(target_seq);
      break;
    case InvokeEffect::kStoreArgs:
      for (const ExportedRef& arg : msg.args) {
        install_ref(target_seq, arg);
      }
      break;
    case InvokeEffect::kDropFields:
      obj->local_fields.clear();
      obj->remote_fields.clear();
      break;
  }

  if (msg.want_reply) {
    ReplyMsg reply;
    reply.ref = msg.ref;
    reply.call_id = msg.call_id;
    if (scion) {
      ++scion->ic;
      scion->last_ic_change = env_.now();
      reply.ic = scion->ic;
    }
    metrics().replies_sent.add();
    send(src, reply);
  }
}

void Process::on_reply(ProcessId src, const ReplyMsg& msg) {
  metrics().replies_received.add();
  if (auto it = inflight_calls_.find(msg.call_id); it != inflight_calls_.end()) {
    if (it->second.first == src) metrics().rmi_rtt_us.record(env_.now() - it->second.second);
    inflight_calls_.erase(it);
  }
  if (!cfg_.dgc_enabled) return;
  if (StubEntry* stub = stubs_.find(msg.ref); stub && msg.ic > stub->ic) {
    stub->ic = msg.ic;
  }
}

void Process::on_new_set_stubs(ProcessId src, const NewSetStubsMsg& msg) {
  metrics().new_set_stubs_received.add();
  const ApplyNssResult res =
      apply_new_set_stubs(scions_, src, msg, env_.now(), cfg_.scion_pending_grace_us);
  if (res.deleted > 0 || res.stale) {
    ADGC_DEBUG("P" << pid_ << " NSS from P" << src << " seq=" << msg.export_seq
                   << " live=" << msg.live.size() << " deleted=" << res.deleted
                   << (res.stale ? " STALE" : ""));
  }
  metrics().scions_deleted_acyclic.add(res.deleted);
}

void Process::on_add_scion(ProcessId src, const AddScionMsg& msg) {
  if (!heap_.exists(msg.target_seq)) {
    // The object is gone; the exporter's reference was already dead. No ack:
    // the exporter abandons after its retries.
    ADGC_WARN("P" << pid_ << " AddScion for missing object " << msg.target_seq);
    return;
  }
  const bool fresh = !scions_.contains(msg.ref);
  scions_.ensure(msg.ref, msg.holder, msg.target_seq, env_.now());
  if (fresh) metrics().scions_created.add();
  AddScionAckMsg ack;
  ack.ref = msg.ref;
  ack.handshake = msg.handshake;
  send(src, ack);
}

void Process::on_add_scion_ack(ProcessId /*src*/, const AddScionAckMsg& msg) {
  auto it = handshakes_.find(msg.handshake);
  if (it == handshakes_.end()) return;  // duplicate ack
  const std::uint64_t call_id = it->second.call_id;
  unpin_stub(it->second.pinned_stub);
  handshakes_.erase(it);
  auto pit = pending_invokes_.find(call_id);
  if (pit != pending_invokes_.end()) {
    pit->second.waiting.erase(msg.handshake);
    maybe_flush_invoke(call_id);
  }
}

void Process::on_cdm(ProcessId /*src*/, const CdmMsg& msg) {
  if (!cfg_.dcda_enabled) return;
  detector_->on_cdm(msg, env_.now());
}

void Process::drop_scion(RefId ref) { scions_.erase(ref); }

void Process::on_cycle_found(DetectionId id, RefId candidate, std::uint64_t expected_ic) {
  detector_->finish(id, env_.now());
  ScionEntry* scion = scions_.find(candidate);
  if (!scion) return;  // already collected (e.g. parallel detection)
  // Last-moment revalidation: the mutator used the reference since the
  // snapshot the detection was based on. (Disabled — along with every other
  // IC comparison — by the model checker's planted-bug knob.)
  if (!cfg_.dcda_unsafe_ignore_ic && scion->ic != expected_ic) {
    metrics().detections_aborted_ic.add();
    return;
  }
  if (scion->target_root_reachable) {
    // The local GC has since seen the target from a root; be conservative.
    metrics().detections_aborted_local.add();
    return;
  }
  ADGC_INFO("P" << pid_ << " deleting scion " << ref_to_string(candidate)
                << " (distributed cycle)");
  drop_scion(candidate);
  metrics().detections_cycle_found.add();
  metrics().scions_deleted_cyclic.add();
}

// -------------------------------------------------------------- collectors

void Process::run_lgc() {
  // Wall-clock pause measurement feeds the lgc_pause_us histogram only
  // (observability, never a protocol decision). The trace event instead
  // carries the Env-clock delta: zero under the simulator, so the recorded
  // trace stays a pure function of (config, seed).
  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime vt_start = env_.now();
  ++lgc_run_;
  if (cfg_.dgc_enabled && cfg_.peer_death_timeout_us > 0) maybe_evict_peers();
  const std::size_t pruned = peer_health_.prune_idle(env_.now(), kPeerHealthIdlePruneUs);
  if (pruned > 0) metrics().peer_health_slots_pruned.add(pruned);
  // Gauge: the table size as of this LGC.
  metrics().peer_health_slots.set(peer_health_.size());
  if (cfg_.dgc_enabled) {
    // Expire never-confirmed scions whose reference demonstrably never
    // reached its holder (delivery lost; nobody will ever account for it).
    const SimTime expiry =
        cfg_.scion_pending_grace_us * cfg_.scion_pending_expiry_factor;
    std::vector<RefId> orphans;
    for (const auto& [ref, scion] : scions_) {
      if (!scion.confirmed && env_.now() >= scion.created_at + expiry) {
        orphans.push_back(ref);
      }
    }
    for (RefId ref : orphans) {
      ADGC_DEBUG("P" << pid_ << " expiring orphan pending scion " << ref_to_string(ref)
                     << " now=" << env_.now() << " expiry=" << expiry);
      scions_.erase(ref);
      metrics().scions_deleted_acyclic.add();
    }
  }
  const lgc::Result res = lgc::run(heap_, stubs_, scions_, pinned_set_, env_.now());
  metrics().lgc_runs.add();
  metrics().objects_reclaimed.add(res.objects_reclaimed);
  metrics().stubs_deleted.add(res.stubs_deleted);
  const auto pause_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  metrics().lgc_pause_us.record(pause_us);
  obs::emit(env_.trace(),
            {env_.now(), pid_, obs::EventType::kLgcRun, 0, 0,
             static_cast<std::uint64_t>(res.objects_reclaimed),
             static_cast<std::uint64_t>(env_.now() - vt_start)});
  if (!cfg_.dgc_enabled) return;
  // A contact is due a NewSetStubs when its listing changed since the last
  // one sent to it, or when that one is a grace period old. The refresh
  // repairs a lost NSS and lists every held reference about
  // `scion_pending_expiry_factor` times before an unconfirmed scion (one an
  // owner restart restored, say) could expire as an orphan.
  //
  // A large listing coalesces: when the previous run sent this contact a
  // listing of more than batch_max_bytes / sizeof(RefId) refs, a change
  // waits one more run. The rule counts refs, not encoded bytes (runs of
  // consecutive refs encode to a few bytes): a listing still costs O(refs)
  // to build, decode and apply, and each one sent is a control message. A
  // NewSetStubs is full-state and idempotent, so the wait only postpones
  // deletions and confirmations by one period.
  const std::size_t large = cfg_.batch_max_bytes / sizeof(RefId);
  std::set<ProcessId> due;
  for (const auto& [dst, version] : stubs_.listing_versions()) {
    const auto it = nss_sent_.find(dst);
    const bool refresh =
        it == nss_sent_.end() || env_.now() >= it->second.at + cfg_.scion_pending_grace_us;
    const bool changed = !refresh && it->second.version != version;
    const bool coalesce = changed && it->second.refs > large && it->second.lgc != 0 &&
                          it->second.lgc + 1 == lgc_run_;
    if (refresh || (changed && !coalesce)) {
      due.insert(dst);
    } else if (coalesce) {
      metrics().new_set_stubs_coalesced.add();
    } else {
      metrics().new_set_stubs_unchanged.add();
    }
  }
  if (due.empty()) return;
  // One stub-table pass builds the payload for every due contact (the
  // per-peer batcher then coalesces each NSS with whatever control traffic
  // is already queued toward that peer).
  for (auto& [dst, msg] : build_all_new_set_stubs(stubs_, due)) {
    send_new_set_stubs(dst, msg, lgc_run_);
  }
  obs::emit(env_.trace(),
            {env_.now(), pid_, obs::EventType::kNssRound, 0, 0, due.size(), 0});
}

void Process::send_new_set_stubs(ProcessId dst, NewSetStubsMsg& msg, std::uint64_t lgc) {
  // The export sequence is epoch-stamped with the incarnation so the first
  // message after a restart (local counter back at 1) still sorts above
  // everything the lost incarnation sent.
  NssSent& sent = nss_sent_[dst];
  msg.export_seq = incarnation_epoch(incarnation_, ++sent.seq);
  sent.version = stubs_.listing_version(dst);
  sent.at = env_.now();
  sent.refs = msg.live.size();
  sent.lgc = lgc;
  metrics().new_set_stubs_sent.add();
  send(dst, msg);
}

SnapshotData Process::capture_for_snapshot(std::uint64_t* version_out,
                                           SimTime* vt_out) {
  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime vt_start = env_.now();
  SnapshotData snap = capture_snapshot(pid_, env_.now(), heap_, stubs_, scions_,
                                       /*with_payloads=*/store_ != nullptr);
  metrics().snapshots_taken.add();
  // Versions are assigned at capture, so a synchronous snapshot taken while
  // a pipelined one is in flight still sorts above it.
  const std::uint64_t version = ++snapshot_version_;
  metrics().snapshot_capture_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count()));
  obs::emit(env_.trace(), {env_.now(), pid_, obs::EventType::kSnapshot, 0, 0, version,
                           static_cast<std::uint64_t>(env_.now() - vt_start)});
  *version_out = version;
  *vt_out = vt_start;
  return snap;
}

void Process::adopt_summary(SnapshotPipeline::Stages s) {
  if (s.summary) {
    summary_ = s.summary;
    detector_->set_snapshot(summary_);
    metrics().summarizations.add();
  }
  obs::emit(env_.trace(),
            {env_.now(), pid_, obs::EventType::kSnapshotPublish,
             static_cast<std::uint8_t>(s.persisted ? 0 : 1), 0, s.version,
             static_cast<std::uint64_t>(env_.now() - s.requested_at)});
  // A request arrived while this pass was in flight: re-capture now, so the
  // coalesced request reflects everything up to this moment.
  if (pipeline_->consume_pending()) request_snapshot();
}

void Process::take_snapshot() {
  // Discard any in-flight pipeline pass: its (older-capture) result must not
  // publish over the one this call is about to install — and the wait also
  // keeps the summarizer/store single-threaded.
  pipeline_->cancel_in_flight();
  std::uint64_t version = 0;
  SimTime vt_start = 0;
  SnapshotData snap = capture_for_snapshot(&version, &vt_start);
  adopt_summary(pipeline_->run_now(snap, version, vt_start));
}

void Process::request_snapshot() {
  if (!cfg_.snapshot_pipeline) {
    take_snapshot();
    return;
  }
  if (pipeline_->in_flight()) {
    pipeline_->mark_pending();
    metrics().snapshots_coalesced.add();
    return;
  }
  std::uint64_t version = 0;
  SimTime vt_start = 0;
  SnapshotData snap = capture_for_snapshot(&version, &vt_start);
  pipeline_->submit(std::move(snap), version, vt_start);
}

std::optional<SnapshotData> Process::install_stored_summary() {
  if (!store_) return std::nullopt;
  const auto stored = store_->read_latest(pid_);
  if (!stored) return std::nullopt;
  SnapshotData snap;
  try {
    snap = serializer_.deserialize(stored->bytes);
  } catch (const DecodeError& e) {
    ADGC_ERROR("P" << pid_ << " stored snapshot undecodable: " << e.what());
    return std::nullopt;
  }
  SummarizedGraph sum = summarizer_.summarize(snap);
  sum.version = stored->version;
  snapshot_version_ = std::max(snapshot_version_, stored->version);
  summary_ = std::make_shared<const SummarizedGraph>(std::move(sum));
  detector_->set_snapshot(summary_);
  return snap;
}

bool Process::recover_summary_from_store() {
  if (!install_stored_summary()) return false;
  ADGC_INFO("P" << pid_ << " recovered snapshot v" << summary_->version << " from disk");
  return true;
}

bool Process::recover_from_store() {
  // The restored live state IS the state this snapshot describes, so the
  // summary installed from it keeps in-flight detections consistent.
  const std::optional<SnapshotData> snap = install_stored_summary();
  if (!snap) return false;
  // The restored stubs' owners are the NewSetStubs contacts again; owners of
  // references we no longer hold will expire the orphan scions themselves.
  restore_snapshot(*snap, heap_, stubs_, scions_, env_.now());
  ADGC_INFO("P" << pid_ << " (inc " << incarnation_ << ") recovered heap="
                << heap_.size() << " stubs=" << stubs_.size() << " scions="
                << scions_.size() << " from snapshot v" << summary_->version);
  return true;
}

void Process::on_peer_crashed(ProcessId crashed) {
  // An open batch toward the crashed peer holds control messages addressed
  // to its dead incarnation; the delivery path would drop the envelope
  // whole, so discard it here and save the wire bytes.
  batcher_->discard_peer(crashed);
  if (cfg_.dcda_enabled) detector_->abort_for_crash(crashed, env_.now());
}

void Process::on_evicted_nack(ProcessId src, const EvictedNackMsg& msg) {
  metrics().eviction_nacks_received.add();
  // Only a NACK aimed at THIS incarnation matters; one addressed to a dead
  // predecessor was already answered by our restart.
  if (msg.evicted_incarnation != incarnation_ || self_evicted_) return;
  self_evicted_ = true;
  ADGC_ERROR("P" << pid_ << " (inc " << incarnation_ << ") was evicted by P" << src
                 << ": this incarnation is committed dead, restart required");
  if (self_evicted_hook_) self_evicted_hook_(src);
}

void Process::on_nss_solicit(ProcessId src) {
  if (!cfg_.dgc_enabled) return;
  // Answer at once, even when the listing is unchanged: the solicitor is
  // about to convict us on silence, and an empty set is as meaningful an
  // answer as a full one — it expires every scion we no longer (or never)
  // back, e.g. after we restarted from a snapshot predating the stubs.
  send_new_set_stubs(src, build_all_new_set_stubs(stubs_, {src}).at(src), /*lgc=*/0);
}

void Process::maybe_evict_peers() {
  const SimTime now = env_.now();
  const SimTime timeout = cfg_.peer_death_timeout_us;
  // Observation epoch: silence can only convict once we have been watching
  // for a full timeout (first call arms the clock — eviction always takes
  // at least two LGC passes, never fires on a cold start).
  if (evict_watch_since_ == 0) {
    evict_watch_since_ = now > 0 ? now : 1;
    return;
  }
  // Silence alone never convicts: it cannot tell a dead peer from one that
  // owes us nothing — an owner whose holder stopped invoking only ever
  // receives our NewSetStubs, and a holder that restarted from a snapshot
  // predating our stubs legitimately never speaks to us again — nor from a
  // partitioned-but-alive one. So silence is turned into requests: every
  // contact and scion holder silent for one probe interval is sent an
  // NssSolicit, one per interval. A live peer answers at once with its
  // authoritative (possibly empty) NewSetStubs, which also expires any
  // orphan scions it no longer backs; a probe still unanswered an interval
  // later scores a failure strike. A suspected peer (enough strikes or
  // other unanswered requests) is convicted once a whole timeout has passed
  // since the first probe it left unanswered: about one interval plus one
  // timeout after it was last heard from. The clock starts at that probe,
  // not at the last message heard, because for a quiet peer the last
  // message is the previous probe's answer, and an outage would then only
  // have to swallow the probes; from the probe, any outage shorter than the
  // timeout minus one interval is ridden out whatever its phase.
  const SimTime interval =
      std::max<SimTime>(timeout / (SimTime{cfg_.suspect_after_failures} + 1), 1);
  std::set<ProcessId> watched;
  for (const auto& [owner, version] : stubs_.listing_versions()) watched.insert(owner);
  for (const auto& [ref, scion] : scions_) {
    (void)ref;
    if (scion.holder != kNoProcess) watched.insert(scion.holder);
  }
  for (ProcessId peer : watched) {
    if (peer == pid_ || peer_health_.evicted_incarnation(peer)) continue;
    const SimTime heard = peer_health_.last_heard(peer);
    const SimTime silent_since = std::max(heard, evict_watch_since_);
    if (now < silent_since + interval) continue;
    const auto probe = nss_solicits_.find(peer);
    const bool probing = probe != nss_solicits_.end();
    const bool probe_due = !probing || now >= probe->second.last + interval;
    if (probe_due && probing && heard < probe->second.last) {
      peer_health_.on_timeout(peer, now);  // unanswered for a whole interval
    }
    // Anything heard since the clock's first probe resets the clock.
    const bool unanswered = probing && heard < probe->second.first;
    if (unanswered && peer_health_.suspected(peer) && now >= probe->second.first + timeout) {
      evict_peer(peer);
    } else if (probe_due) {
      metrics().nss_solicits_sent.add();
      send(peer, NssSolicitMsg{});
      Probes& p = nss_solicits_[peer];
      if (!unanswered) p.first = now;
      p.last = now;
    }
  }
}

void Process::evict_peer(ProcessId peer) {
  if (peer == pid_ || peer_health_.evicted_incarnation(peer)) return;
  const auto inc_it = peer_incs_.find(peer);
  const Incarnation inc = inc_it == peer_incs_.end() ? 0 : inc_it->second;
  peer_health_.record_eviction(peer, inc);
  metrics().peers_evicted.add();
  obs::emit(env_.trace(),
            {env_.now(), pid_, obs::EventType::kEviction, 0, peer, inc, 0});
  ADGC_ERROR("P" << pid_ << " commits P" << peer
                 << " permanently dead (tombstone inc " << inc << "): evicting");

  // 1. Scions held by the dead peer. Its tombstoned incarnation can never
  //    invoke again, and a fresh incarnation must re-export through the
  //    AddScion handshake (minting new RefIds), so dropping these lets the
  //    mark-sweep below reclaim everything only the dead peer kept alive.
  metrics().eviction_scions_dropped.add(scions_.drop_holder(peer));

  // 2. In-flight detections: any CDM path may cross the dead peer and would
  //    then only expire by timeout. Abort them all (the crash rule) and
  //    re-quarantine still-existing candidates under the relaunch backoff.
  if (cfg_.dcda_enabled) {
    const auto aborted = detector_->abort_for_crash(peer, env_.now());
    metrics().detections_aborted_eviction.add(aborted.size());
    for (const auto& rec : aborted) note_detection_timeout(rec.candidate);
  }

  // 3. Export handshakes whose owner is the dead peer can never be acked;
  //    abandon them — and the invocations waiting on them — now instead of
  //    grinding through the retry ladder.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> doomed;  // (handshake, call)
  for (const auto& [id, hs] : handshakes_) {
    if (hs.owner == peer) doomed.emplace_back(id, hs.call_id);
  }
  for (const auto& [id, call_id] : doomed) {
    auto it = handshakes_.find(id);
    if (it == handshakes_.end()) continue;  // sibling teardown got it first
    metrics().add_scion_abandoned.add();
    unpin_stub(it->second.pinned_stub);
    handshakes_.erase(it);
    abandon_invoke(call_id);
  }

  // 4. Stubs toward the dead peer: their targets died with it. Strip every
  //    holding field first so heap and reference listing stay exact, then
  //    retire the stub itself. One heap pass strips them all.
  std::vector<RefId> dead_refs;  // sorted: stubs_ iterates in RefId order
  for (const auto& [ref, stub] : stubs_) {
    if (stub.target.owner == peer) dead_refs.push_back(ref);
  }
  if (!dead_refs.empty()) {
    for (Slot s = 0; s < heap_.slot_end(); ++s) {
      if (HeapObject* obj = heap_.at(s)) {
        std::erase_if(obj->remote_fields, [&](RefId r) {
          return std::binary_search(dead_refs.begin(), dead_refs.end(), r);
        });
      }
    }
  }
  for (RefId ref : dead_refs) {
    pinned_.erase(ref);
    pinned_set_.erase(ref);
    stubs_.erase(ref);
    metrics().eviction_stubs_retired.add();
    metrics().stubs_deleted.add();
  }

  // 5. Reference-listing and transport-side state toward the peer, so
  //    survivor memory stays bounded under churn.
  stubs_.forget_owner(peer);
  nss_sent_.erase(peer);
  nss_solicits_.erase(peer);
  for (auto it = inflight_calls_.begin(); it != inflight_calls_.end();) {
    it = it->second.first == peer ? inflight_calls_.erase(it) : ++it;
  }
  batcher_->discard_peer(peer);
  peer_health_.erase_peer(peer);
  if (peer_evicted_hook_) peer_evicted_hook_(peer);
}

void Process::note_detection_timeout(RefId candidate) {
  if (!cfg_.adaptive_faults) return;
  ScionEntry* scion = scions_.find(candidate);
  if (!scion) return;  // collected meanwhile: nothing left to relaunch
  if (scion->detection_timeouts < 20) ++scion->detection_timeouts;
  scion->relaunch_not_before =
      env_.now() + backoff_delay(cfg_.dcda_scan_period_us, cfg_.detection_backoff_cap_us,
                                 static_cast<int>(scion->detection_timeouts), env_.rng());
}

void Process::run_dcda_scan() {
  if (!cfg_.dcda_enabled) return;
  for (const auto& rec : detector_->expire(env_.now())) {
    note_detection_timeout(rec.candidate);
  }
  const std::vector<RefId> cands = select_candidates(
      scions_, summary_.get(), detector_->manager(), cfg_, env_.now(),
      cfg_.adaptive_faults ? &peer_health_ : nullptr,
      cfg_.adaptive_faults ? &env_.metrics() : nullptr);
  for (RefId c : cands) {
    detector_->start_detection(c, env_.now());
  }
}

}  // namespace adgc
