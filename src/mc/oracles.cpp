#include "src/mc/oracles.h"

#include <sstream>

#include "src/common/walk.h"
#include "src/sim/harness.h"

namespace adgc::mc {

namespace {
bool is_tainted(const std::unordered_set<ProcessId>* tainted, ProcessId pid) {
  return tainted != nullptr && tainted->contains(pid);
}
}  // namespace

std::optional<std::string> check_reachable_intact(
    const Runtime& rt, const std::unordered_set<ProcessId>* tainted) {
  std::vector<ObjectId> seeds;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (ObjectSeq seq : rt.proc(pid).heap().roots()) {
      if (!rt.proc(pid).heap().exists(seq)) {
        std::ostringstream os;
        os << "SAFETY: rooted object " << to_string(ObjectId{pid, seq})
           << " was collected";
        return os.str();
      }
      seeds.push_back({pid, seq});
    }
  }

  // Every object marked exists: a seed was checked above, and a successor is
  // checked before it is visited.
  std::unordered_set<ObjectId> visited;
  std::optional<std::string> violation;
  const auto fail = [&](const std::string& what) {
    violation = "SAFETY: " + what;
    return false;
  };
  walk<ObjectId>(
      seeds, [&](const ObjectId& id) { return visited.insert(id).second; },
      [&](const ObjectId& cur, const auto& visit) {
        const Process& proc = rt.proc(cur.owner);
        const HeapObject* obj = proc.heap().find(cur.seq);
        for (ObjectSeq next : obj->local_fields) {
          if (!proc.heap().exists(next)) {
            return fail("live " + to_string(cur) + " holds local field to collected " +
                        to_string(ObjectId{cur.owner, next}));
          }
          visit({cur.owner, next});
        }
        for (RefId ref : obj->remote_fields) {
          const StubEntry* stub = proc.stubs().find(ref);
          if (!stub) {
            return fail("live " + to_string(cur) + " holds remote ref " + ref_to_string(ref) +
                        " with no stub entry");
          }
          const ProcessId owner = stub->target.owner;
          // Crash-tainted endpoints may legitimately dangle: a crash loses
          // the owner's tables (or rolled them back to an older snapshot).
          if (owner >= rt.size() || !rt.alive(owner) || is_tainted(tainted, owner) ||
              is_tainted(tainted, cur.owner)) {
            continue;
          }
          const Process& owner_proc = rt.proc(owner);
          if (!owner_proc.scions().contains(ref)) {
            return fail("scion " + ref_to_string(ref) + " at P" + std::to_string(owner) +
                        " dropped while live " + to_string(cur) + " still holds the stub");
          }
          if (!owner_proc.heap().exists(stub->target.seq)) {
            return fail("remotely referenced " + to_string(stub->target) +
                        " was collected under live holder " + to_string(cur));
          }
          visit(stub->target);
        }
        return true;
      });
  return violation;
}

std::optional<std::string> check_objects_exist(
    const Runtime& rt, const std::unordered_set<ObjectId>& must_exist) {
  for (const ObjectId& id : must_exist) {
    if (id.owner >= rt.size() || !rt.alive(id.owner)) continue;
    if (!rt.proc(id.owner).heap().exists(id.seq)) {
      std::ostringstream os;
      os << "SAFETY: oracle-live " << to_string(id) << " was collected";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_no_garbage(const Runtime& rt) {
  const std::unordered_set<ObjectId> live = sim::global_live_set(rt);
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (rt.alive(pid)) total += rt.proc(pid).heap().size();
  }
  if (total == live.size()) return std::nullopt;
  // Name one surviving garbage object for the diagnostic.
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    const Heap& heap = rt.proc(pid).heap();
    for (Slot s = 0; s < heap.slot_end(); ++s) {
      const HeapObject* obj = heap.at(s);
      if (obj && !live.contains({pid, obj->seq})) {
        std::ostringstream os;
        os << "LIVENESS: " << (total - live.size()) << " garbage object(s) remain, e.g. "
           << to_string(ObjectId{pid, obj->seq});
        return os.str();
      }
    }
  }
  return std::nullopt;  // unreachable
}

}  // namespace adgc::mc
