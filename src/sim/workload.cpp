#include "src/sim/workload.h"

#include <algorithm>

#include "src/common/walk.h"

namespace adgc::sim {

// ------------------------------------------------------------- ShadowGraph

void ShadowGraph::add_object(ObjectId id) { out_.try_emplace(id); }

void ShadowGraph::remove_object(ObjectId id) {
  out_.erase(id);
  roots_.erase(id);
}

void ShadowGraph::set_edges(ObjectId id, std::vector<ObjectId> outs) {
  out_[id] = std::move(outs);
}

void ShadowGraph::add_root(ObjectId id) { roots_.insert(id); }
void ShadowGraph::remove_root(ObjectId id) { roots_.erase(id); }

void ShadowGraph::add_edge(ObjectId from, ObjectId to) { out_[from].push_back(to); }

void ShadowGraph::remove_edge(ObjectId from, ObjectId to) {
  auto it = out_.find(from);
  if (it == out_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), to);
  if (pos != it->second.end()) it->second.erase(pos);
}

std::unordered_set<ObjectId> ShadowGraph::live() const {
  std::unordered_set<ObjectId> live;
  walk<ObjectId>(
      roots_, [&](ObjectId id) { return out_.contains(id) && live.insert(id).second; },
      [&](ObjectId cur, const auto& visit) {
        for (ObjectId next : out_.at(cur)) visit(next);
        return true;
      });
  return live;
}

// ----------------------------------------------------------- RandomWorkload

RandomWorkload::RandomWorkload(Runtime& rt, WorkloadParams params, std::uint64_t seed)
    : rt_(rt), params_(params), rng_(seed), objects_(rt.size()) {
  for (ProcessId pid = 0; pid < rt_.size(); ++pid) {
    for (std::size_t i = 0; i < params_.initial_objects_per_proc; ++i) {
      const ObjectSeq seq = rt_.proc(pid).create_object();
      objects_[pid].push_back(seq);
      const ObjectId id{pid, seq};
      shadow_.add_object(id);
      // Root half of the initial population so there is something to reach.
      if (i % 2 == 0) {
        rt_.proc(pid).add_root(seq);
        shadow_.add_root(id);
        rooted_.insert(id);
      }
    }
  }
}

ObjectId RandomWorkload::random_object(ProcessId pid) {
  const auto& v = objects_[pid];
  return ObjectId{pid, v[rng_.below(v.size())]};
}

ObjectId RandomWorkload::random_object_any() {
  const auto pid = static_cast<ProcessId>(rng_.below(rt_.size()));
  return random_object(pid);
}

void RandomWorkload::step() {
  const double roll = rng_.uniform();
  double acc = params_.p_create;
  if (roll < acc) return op_create();
  acc += params_.p_add_local_edge;
  if (roll < acc) return op_add_local_edge();
  acc += params_.p_add_remote_edge;
  if (roll < acc) return op_add_remote_edge();
  acc += params_.p_remove_edge;
  if (roll < acc) return op_remove_edge();
  acc += params_.p_toggle_root;
  if (roll < acc) return op_toggle_root();
  return op_invoke();
}

void RandomWorkload::steps(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

void RandomWorkload::op_create() {
  if (shadow_.num_objects() >= params_.max_objects) return;
  const auto pid = static_cast<ProcessId>(rng_.below(rt_.size()));
  const ObjectSeq seq = rt_.proc(pid).create_object();
  objects_[pid].push_back(seq);
  const ObjectId id{pid, seq};
  shadow_.add_object(id);
  // New objects start rooted (a real allocator returns them to a live
  // variable); a later toggle_root may release them.
  rt_.proc(pid).add_root(seq);
  shadow_.add_root(id);
  rooted_.insert(id);
}

void RandomWorkload::op_add_local_edge() {
  const auto live = shadow_.live();
  if (live.empty()) return;
  // Source must be live (the mutator can only write into reachable objects);
  // target may be any object that still exists.
  std::vector<ObjectId> live_vec(live.begin(), live.end());
  const ObjectId from = live_vec[rng_.below(live_vec.size())];
  ObjectId to = random_object(from.owner);
  if (!rt_.proc(from.owner).heap().exists(to.seq)) return;  // already collected
  rt_.proc(from.owner).add_local_ref(from.seq, to.seq);
  shadow_.add_edge(from, to);
  edges_.push_back({from, to, kNoRef});
}

void RandomWorkload::op_add_remote_edge() {
  if (params_.use_rmi_edges && rng_.chance(0.5)) {
    op_rmi_store_edge();
    return;
  }
  const auto live = shadow_.live();
  if (live.empty()) return;
  std::vector<ObjectId> live_vec(live.begin(), live.end());
  const ObjectId from = live_vec[rng_.below(live_vec.size())];
  // Prefer a live target: only live targets can legitimately be exported
  // (someone must have been able to name them).
  const ObjectId to = live_vec[rng_.below(live_vec.size())];
  if (to.owner == from.owner) {
    rt_.proc(from.owner).add_local_ref(from.seq, to.seq);
    shadow_.add_edge(from, to);
    edges_.push_back({from, to, kNoRef});
    return;
  }
  const RefId ref = rt_.link(from, to);
  shadow_.add_edge(from, to);
  edges_.push_back({from, to, ref});
}

void RandomWorkload::op_remove_edge() {
  if (edges_.empty()) return;
  // Pick a random edge whose source is still live (the mutator must be able
  // to reach the field it clears).
  const auto live = shadow_.live();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::size_t i = rng_.below(edges_.size());
    const Edge e = edges_[i];
    if (!live.contains(e.from)) continue;
    if (e.ref == kNoRef) {
      rt_.proc(e.from.owner).remove_local_ref(e.from.seq, e.to.seq);
    } else {
      rt_.proc(e.from.owner).remove_remote_ref(e.from.seq, e.ref);
    }
    shadow_.remove_edge(e.from, e.to);
    edges_[i] = edges_.back();
    edges_.pop_back();
    return;
  }
}

void RandomWorkload::op_toggle_root() {
  if (!rooted_.empty() && rng_.chance(0.6)) {
    // Drop a root.
    std::vector<ObjectId> v(rooted_.begin(), rooted_.end());
    const ObjectId id = v[rng_.below(v.size())];
    rt_.proc(id.owner).remove_root(id.seq);
    shadow_.remove_root(id);
    rooted_.erase(id);
    return;
  }
  const auto live = shadow_.live();
  if (live.empty()) return;
  std::vector<ObjectId> v(live.begin(), live.end());
  const ObjectId id = v[rng_.below(v.size())];
  rt_.proc(id.owner).add_root(id.seq);
  shadow_.add_root(id);
  rooted_.insert(id);
}

void RandomWorkload::op_invoke() {
  if (edges_.empty()) return;
  const auto live = shadow_.live();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::size_t i = rng_.below(edges_.size());
    const Edge& e = edges_[i];
    if (e.ref == kNoRef || !live.contains(e.from)) continue;
    rt_.proc(e.from.owner).invoke(e.from.seq, e.ref, InvokeEffect::kTouch);
    return;
  }
}

void RandomWorkload::op_rmi_store_edge() {
  // Pick a remote edge e (the invocation channel) whose source is live, and
  // an own object x of the invoking process to export into e.to's fields.
  const auto live = shadow_.live();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::size_t i = rng_.below(edges_.size() + 1);
    if (i == edges_.size()) break;  // occasional no-op keeps distribution soft
    const Edge e = edges_[i];
    if (e.ref == kNoRef || !live.contains(e.from)) continue;

    // Choose a live object owned by the invoking process.
    const ProcessId owner = e.from.owner;
    ObjectId arg{kNoProcess, kNoObject};
    for (int k = 0; k < 8; ++k) {
      const ObjectId cand = random_object(owner);
      if (live.contains(cand)) {
        arg = cand;
        break;
      }
    }
    if (arg.seq == kNoObject) return;

    rt_.proc(owner).invoke(e.from.seq, e.ref, InvokeEffect::kStoreArgs,
                           {ArgRef::own(arg.seq)});
    // Flush so the install is visible and the shadow stays exact.
    rt_.run_for(params_.rmi_flush_us);

    // Locate the installed reference at the receiver to make it removable.
    const Process& recv = rt_.proc(e.to.owner);
    const HeapObject* obj = recv.heap().find(e.to.seq);
    RefId installed = kNoRef;
    if (obj) {
      for (RefId ref : obj->remote_fields) {
        const StubEntry* stub = recv.stubs().find(ref);
        if (!stub || stub->target != arg) continue;
        // Every export mints a fresh RefId; skip refs already tracked so a
        // repeated (e.to → arg) edge maps to its own reference.
        const bool tracked = std::any_of(edges_.begin(), edges_.end(), [&](const Edge& t) {
          return t.ref == ref && t.from == e.to;
        });
        if (!tracked) installed = ref;
      }
    }
    if (installed == kNoRef) return;  // invocation raced away; no edge, no shadow
    shadow_.add_edge(e.to, arg);
    edges_.push_back({e.to, arg, installed});
    return;
  }
}

void RandomWorkload::sync_after_restart(ProcessId pid) {
  const Process& proc = rt_.proc(pid);
  const Heap& heap = proc.heap();

  // Objects the rollback lost vanish from the shadow; dangling shadow edges
  // toward them are ignored by ShadowGraph::live().
  for (ObjectSeq seq : objects_[pid]) {
    const ObjectId id{pid, seq};
    if (!heap.exists(seq)) {
      shadow_.remove_object(id);
      rooted_.erase(id);
    }
  }

  // Incoming references whose scion the rollback lost are broken: drop the
  // holder-side field too (the application discards a dead reference).
  std::erase_if(edges_, [&](const Edge& e) {
    if (e.from.owner == pid) return true;  // re-derived from the heap below
    if (e.to.owner != pid || e.ref == kNoRef) return false;
    if (proc.scions().contains(e.ref) && heap.exists(e.to.seq)) return false;
    if (rt_.alive(e.from.owner)) {
      rt_.proc(e.from.owner).remove_remote_ref(e.from.seq, e.ref);
    }
    shadow_.remove_edge(e.from, e.to);
    return true;
  });

  // Re-derive the restored objects' edges and root status from the heap.
  for (ObjectSeq seq : objects_[pid]) {
    if (!heap.exists(seq)) continue;
    const ObjectId id{pid, seq};
    const HeapObject* obj = heap.find(seq);
    std::vector<ObjectId> outs;
    for (ObjectSeq t : obj->local_fields) {
      outs.push_back(ObjectId{pid, t});
      edges_.push_back({id, ObjectId{pid, t}, kNoRef});
    }
    // Outgoing remote references: a restored stub whose scion the owner has
    // meanwhile deleted (it acted on this process's pre-crash messages) is
    // broken — drop it instead of resurrecting it.
    std::vector<RefId> broken;
    for (RefId ref : obj->remote_fields) {
      const StubEntry* stub = proc.stubs().find(ref);
      if (!stub) continue;
      const ProcessId owner = stub->target.owner;
      if (!rt_.alive(owner) || !rt_.proc(owner).scions().contains(ref)) {
        broken.push_back(ref);
        continue;
      }
      outs.push_back(stub->target);
      edges_.push_back({id, stub->target, ref});
    }
    for (RefId ref : broken) rt_.proc(pid).remove_remote_ref(seq, ref);
    shadow_.set_edges(id, std::move(outs));
    if (heap.is_root(seq)) {
      shadow_.add_root(id);
      rooted_.insert(id);
    } else {
      shadow_.remove_root(id);
      rooted_.erase(id);
    }
  }
}

std::optional<ObjectId> RandomWorkload::find_safety_violation() const {
  for (ObjectId id : shadow_.live()) {
    if (!rt_.proc(id.owner).heap().exists(id.seq)) return id;
  }
  return std::nullopt;
}

bool RandomWorkload::converged() const {
  if (find_safety_violation()) return false;
  const auto live = shadow_.live();
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt_.size(); ++pid) {
    total += rt_.proc(pid).heap().size();
  }
  return total == live.size();
}

}  // namespace adgc::sim
