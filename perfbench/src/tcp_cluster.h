// A set of NodeRuntimes wired over loopback TCP inside the benchmark process,
// plus the probe worker that times layer calls on captured state off the
// generator thread.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "src/rt/node_runtime.h"

namespace perfbench {

class Cluster {
 public:
  /// `state_root` empty = volatile nodes; otherwise node i keeps its
  /// incarnation file and snapshot store under state_root/node<i>, as
  /// `adgc_node --state-dir` does.
  /// Node i's threads (IO, loop, snapshot worker) run on CPU node_cores[i]
  /// and the calling thread on `caller_core`, when the machine has every
  /// CPU named (an empty `node_cores` leaves all threads unpinned). Thread
  /// placement was most of the run-to-run spread otherwise.
  Cluster(std::size_t n, std::uint64_t seed, const std::string& state_root,
          std::vector<int> node_cores, int caller_core);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t size() const { return nodes_.size(); }
  adgc::NodeRuntime& node(std::size_t i) { return *nodes_.at(i); }

  /// Counters and histograms summed over every node (atomics: safe from the
  /// generator thread).
  adgc::Metrics totals();
  /// The node's Process metrics, readable lock-free from any thread.
  const adgc::Metrics& proc_metrics(std::size_t i) const { return *proc_metrics_.at(i); }

  /// Copies every node's state, each under its own short post_sync.
  std::vector<NodeState> capture_all(SpanLog& spans, std::uint64_t parent);
  /// Posts an empty closure to node `i`; when it runs, the time it waited in
  /// the actor's queue is added to `waits` (under `mu`). Never blocks.
  void sample_actor_wait(std::size_t i, std::shared_ptr<std::mutex> mu,
                         std::shared_ptr<Samples> waits);

  struct Tables {
    double heap = 0, stubs = 0, scions = 0;
  };
  Tables tables();

  /// Stops every node (joins their threads); idempotent.
  void stop();

 private:
  std::vector<std::unique_ptr<adgc::NodeRuntime>> nodes_;
  std::vector<const adgc::Metrics*> proc_metrics_;
  std::string state_root_;
};

/// Runs LayerProbe rounds — state capture included — on its own thread, so a
/// slow round never stalls the load generator. One job at a time; offers
/// while busy are refused.
class ProbeWorker {
 public:
  /// `core` >= 0 runs the worker on that CPU (if the machine has it), so
  /// its timings do not share a CPU with a pinned generator.
  ProbeWorker(LayerProbe& probe, int core);
  ~ProbeWorker();

  ProbeWorker(const ProbeWorker&) = delete;
  ProbeWorker& operator=(const ProbeWorker&) = delete;

  bool busy() const;
  using Capture = std::function<std::vector<NodeState>(std::uint64_t parent)>;
  /// Hands over one round; false (and nothing done) if a round is running.
  bool offer(Capture capture, std::optional<adgc::InvokeMsg> invoke, std::uint64_t parent);
  /// Waits for the running round, if any; throws if a round failed.
  void drain();

 private:
  void loop();

  LayerProbe& probe_;
  int core_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool has_job_ = false;
  bool running_ = false;
  Capture capture_;
  std::optional<adgc::InvokeMsg> invoke_;
  std::uint64_t parent_ = 0;
  std::string error_;  // first failure of a round, rethrown by drain()
  std::thread thread_;  // last: started after the members it uses exist
};

}  // namespace perfbench
