// Admin endpoint integration tests.
//
// The in-process half starts NodeRuntimes with the admin HTTP server on and
// scrapes /metrics, /healthz and /tracez through real sockets. The
// out-of-process half forks the actual adgc_node binary (path injected by
// CMake as ADGC_NODE_BIN), reads its ADMIN/STATS status lines, curls the
// live endpoint and SIGTERMs it — the closest thing to production that can
// run inside ctest.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/admin_http.h"
#include "src/obs/prom.h"
#include "src/rt/node_runtime.h"

namespace adgc {
namespace {

using namespace std::chrono_literals;

RuntimeConfig fast_cfg(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  cfg.proc.lgc_period_us = 20'000;
  cfg.proc.snapshot_period_us = 40'000;
  cfg.proc.dcda_scan_period_us = 60'000;
  return cfg;
}

std::uint16_t reserve_port() {
  Metrics m;
  TcpTransport::Options o;
  o.self = 99;
  TcpTransport probe(o, m);
  probe.start();
  const std::uint16_t port = probe.port();
  probe.stop(0);
  return port;
}

TEST(AdminEndpoint, ServesMetricsHealthAndTrace) {
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                               {1, {"127.0.0.1", p1}}};
  NodeRuntime::Options o0;
  o0.pid = 0;
  o0.cfg = fast_cfg(1);
  o0.listen = "127.0.0.1:" + std::to_string(p0);
  o0.peers = peers;
  o0.admin_enabled = true;
  NodeRuntime::Options o1 = o0;
  o1.pid = 1;
  o1.cfg = fast_cfg(2);
  o1.listen = "127.0.0.1:" + std::to_string(p1);

  NodeRuntime n0(std::move(o0)), n1(std::move(o1));
  n0.start();
  n1.start();
  const std::uint16_t admin = n0.admin_port();
  ASSERT_GT(admin, 0) << "admin endpoint did not bind";

  // Generate cross-node traffic so the RMI counters and histograms move.
  ObjectSeq target = kNoObject;
  n1.post_sync([&](Process& p) { target = p.create_object(); });
  ExportedRef exported;
  n1.post_sync([&](Process& p) { exported = p.export_own_object(target, 0); });
  n0.post_sync([&](Process& p) {
    const ObjectSeq holder = p.create_object();
    p.add_root(holder);
    const RefId via = p.install_ref(holder, exported);
    p.invoke(holder, via, InvokeEffect::kTouch);
  });
  std::this_thread::sleep_for(400ms);

  const auto metrics = obs::http_get("127.0.0.1", admin, "/metrics");
  ASSERT_TRUE(metrics.has_value()) << "/metrics did not answer 200";
  std::map<std::string, double> samples;
  std::string err;
  ASSERT_TRUE(obs::parse_prometheus(*metrics, &samples, &err)) << err;
  EXPECT_GT(samples.at("adgc_messages_sent_total"), 0.0);
  EXPECT_GT(samples.at("adgc_tcp_frames_sent_total"), 0.0);
  EXPECT_GT(samples.at("adgc_snapshots_taken_total"), 0.0);
  EXPECT_GT(samples.at("adgc_rmi_rtt_us_count"), 0.0);
  int histograms = 0;
  for (const char* h : {"adgc_rmi_rtt_us_count", "adgc_lgc_pause_us_count",
                        "adgc_snapshot_capture_us_count",
                        "adgc_detection_lifetime_us_count",
                        "adgc_batch_flush_msgs_count", "adgc_tcp_writeq_depth_count"}) {
    if (samples.contains(h)) ++histograms;
  }
  EXPECT_GE(histograms, 5);

  // The page is rebuilt every 500 ms on the loop thread; wait for a
  // rebuild that follows the RMI above.
  auto health = obs::http_get("127.0.0.1", admin, "/healthz");
  for (int i = 0; i < 40 && health && health->find("peer P1 ") == std::string::npos; ++i) {
    std::this_thread::sleep_for(50ms);
    health = obs::http_get("127.0.0.1", admin, "/healthz");
  }
  ASSERT_TRUE(health.has_value()) << "/healthz did not answer 200";
  EXPECT_NE(health->find("node P0"), std::string::npos) << *health;
  EXPECT_NE(health->find("peer P1 failures=0"), std::string::npos) << *health;

  const auto trace = obs::http_get("127.0.0.1", admin, "/tracez");
  ASSERT_TRUE(trace.has_value()) << "/tracez did not answer 200";
  EXPECT_NE(trace->find("snapshot"), std::string::npos) << *trace;

  // Unknown targets are a 404 (http_get folds non-200 to nullopt).
  EXPECT_FALSE(obs::http_get("127.0.0.1", admin, "/nope").has_value());

  // The ring off (capacity 0) keeps /tracez serving, with an explanation.
  NodeRuntime::Options o2;
  o2.pid = 7;
  o2.cfg = fast_cfg(3);
  o2.cfg.proc.trace_ring_capacity = 0;
  o2.listen = "127.0.0.1:0";
  o2.admin_enabled = true;
  NodeRuntime n2(std::move(o2));
  n2.start();
  const auto empty_trace = obs::http_get("127.0.0.1", n2.admin_port(), "/tracez");
  ASSERT_TRUE(empty_trace.has_value());
  EXPECT_NE(empty_trace->find("disabled"), std::string::npos);
  n2.stop();

  n0.stop();
  n1.stop();
}

#ifdef ADGC_NODE_BIN

/// One forked adgc_node with its stdout on a pipe.
struct NodeProc {
  pid_t pid = -1;
  int out_fd = -1;
  std::string buf;

  bool spawn(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    out_fd = fds[0];
    return true;
  }

  /// Reads stdout until a line starting with `prefix` appears; returns it.
  std::string wait_for_line(const std::string& prefix,
                            std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      char chunk[4096];
      const ssize_t n = ::read(out_fd, chunk, sizeof(chunk));
      if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      while (pos < buf.size()) {
        std::size_t nl = buf.find('\n', pos);
        if (nl == std::string::npos) break;
        const std::string line = buf.substr(pos, nl - pos);
        if (line.rfind(prefix, 0) == 0) return line;
        pos = nl + 1;
      }
      buf.erase(0, pos);
      std::this_thread::sleep_for(20ms);
    }
    return "";
  }

  int terminate() {
    if (pid < 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (out_fd >= 0) ::close(out_fd);
    pid = -1;
    return status;
  }

  ~NodeProc() {
    if (pid >= 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (out_fd >= 0) ::close(out_fd);
  }
};

TEST(AdminEndpoint, RealNodeBinaryServesScrapes) {
  NodeProc node;
  ASSERT_TRUE(node.spawn({ADGC_NODE_BIN, "--id=0", "--listen=127.0.0.1:0",
                          "--admin-port=0", "--stats-interval-ms=100",
                          "--status-every-ms=100"}));

  const std::string admin_line = node.wait_for_line("ADMIN ", 10'000ms);
  ASSERT_FALSE(admin_line.empty()) << "node never announced its admin port";
  const std::size_t eq = admin_line.rfind("port=");
  ASSERT_NE(eq, std::string::npos) << admin_line;
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(admin_line.c_str() + eq + 5, nullptr, 10));
  ASSERT_GT(port, 0);

  const auto metrics = obs::http_get("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.has_value()) << "/metrics scrape of the real node failed";
  std::map<std::string, double> samples;
  std::string err;
  ASSERT_TRUE(obs::parse_prometheus(*metrics, &samples, &err)) << err;
  EXPECT_TRUE(samples.contains("adgc_lgc_runs_total"));
  EXPECT_TRUE(samples.contains("adgc_rmi_rtt_us_count"));

  const auto health = obs::http_get("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.has_value()) << "/healthz scrape of the real node failed";

  // --stats-interval-ms must produce the one-line STATS log.
  const std::string stats_line = node.wait_for_line("STATS ", 10'000ms);
  ASSERT_FALSE(stats_line.empty()) << "node never printed a STATS line";
  EXPECT_NE(stats_line.find("rmi_p99_us="), std::string::npos) << stats_line;

  const int status = node.terminate();
  EXPECT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "node did not drain cleanly on SIGTERM";
}

#endif  // ADGC_NODE_BIN

}  // namespace
}  // namespace adgc
