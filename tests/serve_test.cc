// End-to-end tests for the `fairem serve` daemon (DESIGN.md §14). Every
// test forks a real daemon process — single-threaded child running
// RunServeDaemon, stopped with a real SIGTERM — and talks to it over the
// UNIX socket like any client would, so admission control, deadlines,
// crash isolation, slow-client handling, and drain are all exercised
// through the production wire, not through seams.
//
// The chaos lane (ctest `serve_chaos`) reruns the *Chaos* tests with
// FAIREM_FAILPOINTS exported, which the forked daemons inherit; without
// the env the Chaos test arms a default crash spec itself.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/telemetry.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

std::string FreshSocketPath(const std::string& leaf) {
  // sun_path is 108 bytes; /tmp keeps us far under even when TempDir is
  // a deep build path.
  std::string path = "/tmp/fairem_" + leaf + "." +
                     std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return path;
}

ServeOptions SmallServeOptions(const std::string& socket_path) {
  ServeOptions options;
  options.socket_path = socket_path;
  options.warm.datasets = {"Cricket"};
  options.warm.scale = 0.25;
  options.default_deadline_s = 60.0;
  options.max_deadline_s = 120.0;
  return options;
}

class DaemonHandle {
 public:
  /// `obs` wraps the daemon the way `fairem serve` does: applied before it
  /// starts, flushed after its drain.
  DaemonHandle(const ServeOptions& options, const std::string& failpoints,
               const ObsOptions& obs = {}) {
    pid_ = ::fork();
    if (pid_ == 0) {
      if (!failpoints.empty()) {
        if (Status st = FailpointRegistry::Global().Configure(failpoints);
            !st.ok()) {
          ::_exit(2);
        }
      }
      Status st = ApplyObsOptions(obs);
      if (st.ok()) st = RunServeDaemon(options);
      if (st.ok()) st = FlushObsOutputs(obs);
      ::_exit(st.ok() ? 0 : 1);
    }
  }

  ~DaemonHandle() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// SIGTERM + reap; returns the wait status (-1 when already stopped).
  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = -1;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

Result<ServeClient> ConnectPatient(const std::string& socket_path) {
  ServeClientOptions options;
  options.io_timeout_s = 60.0;  // warmup + a cell compute fit comfortably
  options.connect_timeout_s = 60.0;
  return ServeClient::Connect(socket_path, options);
}

QueryRequest CellRequest(const std::string& matcher,
                         double deadline_s = 60.0) {
  QueryRequest request;
  request.op = "cell";
  request.dataset = "Cricket";
  request.matcher = matcher;
  request.deadline_s = deadline_s;
  return request;
}

int RawConnect(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  for (int tries = 0; tries < 500; ++tries) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    ::usleep(20 * 1000);
  }
  ::close(fd);
  return -1;
}

TEST(ServeTest, PingStatsAndCellByteIdentity) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_basic");
  DaemonHandle daemon(SmallServeOptions(socket_path), "");
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  QueryRequest ping;
  ping.op = "ping";
  Result<QueryResponse> pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok());
  EXPECT_EQ(pong->payload, "pong");

  Result<QueryResponse> first = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->status.ok()) << first->status;
  EXPECT_NE(first->payload.find("\"matcher\":\"DTMatcher\""),
            std::string::npos);

  // The repeat must come from the parent-owned cache: byte-identical.
  Result<QueryResponse> second = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second->status.ok());
  EXPECT_EQ(first->payload, second->payload);

  QueryRequest stats;
  stats.op = "stats";
  Result<QueryResponse> snapshot = client->Call(stats);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->status.ok());
  EXPECT_NE(snapshot->payload.find("fairem.serve.requests_total"),
            std::string::npos);
  EXPECT_NE(snapshot->payload.find("fairem.serve.cell_cache_hits"),
            std::string::npos);

  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, StructuredErrorsForBadQueries) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_badq");
  DaemonHandle daemon(SmallServeOptions(socket_path), "");
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  QueryRequest bad_op;
  bad_op.op = "explode";
  Result<QueryResponse> r = client->Call(bad_op);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.IsInvalidArgument()) << r->status;

  QueryRequest bad_dataset = CellRequest("DTMatcher");
  bad_dataset.dataset = "Atlantis";
  r = client->Call(bad_dataset);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.IsNotFound()) << r->status;

  QueryRequest bad_matcher = CellRequest("Oracle9000");
  r = client->Call(bad_matcher);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.IsNotFound()) << r->status;

  QueryRequest bad_mode = CellRequest("DTMatcher");
  bad_mode.mode = "triplewise";
  r = client->Call(bad_mode);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.IsInvalidArgument()) << r->status;

  // The connection survived four rejected queries.
  QueryRequest ping;
  ping.op = "ping";
  r = client->Call(ping);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.ok());
  EXPECT_EQ(daemon.Stop() != -1 ? 0 : 1, 0);
}

TEST(ServeTest, UnknownFrameSkippedMalformedAndOversizedClose) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_frames");
  DaemonHandle daemon(SmallServeOptions(socket_path), "");

  // Unknown frame type before a valid request: skipped, request answered.
  int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  QueryRequest ping;
  ping.op = "ping";
  ping.id = 11;
  std::string wire = EncodeServeMessage("WHAT", "future frame type");
  wire += EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(ping));
  ASSERT_TRUE(WriteFullDeadline(fd, wire.data(), wire.size(), 30.0).ok());
  FrameDecoder decoder;
  Result<ServeMessage> reply = ReadServeMessage(fd, &decoder, 60.0);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, kFrameQueryResponse);
  Result<QueryResponse> parsed = ParseQueryResponse(reply->bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, 11u);
  ::close(fd);

  // Garbage instead of the magic: unrecoverable, daemon closes promptly.
  fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(
      WriteFullDeadline(fd, garbage, sizeof(garbage) - 1, 30.0).ok());
  char byte = 0;
  Status eof = ReadSomeBefore(fd, &byte, 1, MonotonicSeconds() + 30.0).status();
  EXPECT_TRUE(eof.IsUnavailable()) << eof;
  ::close(fd);

  // Oversized declared length: closed without buffering 1 TiB.
  fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  std::string huge = "FEMTEL1\nQREQ0000010000000000\n";  // 2^40 bytes claimed
  ASSERT_TRUE(WriteFullDeadline(fd, huge.data(), huge.size(), 30.0).ok());
  eof = ReadSomeBefore(fd, &byte, 1, MonotonicSeconds() + 30.0).status();
  EXPECT_TRUE(eof.IsUnavailable()) << eof;
  ::close(fd);

  // None of that hurt the daemon.
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  QueryRequest probe;
  probe.op = "ping";
  Result<QueryResponse> pong = client->Call(probe);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok());
  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, SlowClientDisconnected) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_slow");
  ServeOptions options = SmallServeOptions(socket_path);
  options.io_timeout_s = 0.3;
  DaemonHandle daemon(options, "");

  // Stall mid-frame: magic + half a header, then silence.
  int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  const char partial[] = "FEMTEL1\nQRE";
  ASSERT_TRUE(
      WriteFullDeadline(fd, partial, sizeof(partial) - 1, 30.0).ok());
  char byte = 0;
  Status eof = ReadSomeBefore(fd, &byte, 1, MonotonicSeconds() + 30.0).status();
  EXPECT_TRUE(eof.IsUnavailable()) << eof;  // daemon hung up on us
  ::close(fd);

  // An idle-but-clean connection is NOT closed: no pending bytes either way.
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  ::usleep(600 * 1000);
  QueryRequest ping;
  ping.op = "ping";
  Result<QueryResponse> pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok());
  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, DeadlineExceededOnHangingWorker) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_hang");
  ServeOptions options = SmallServeOptions(socket_path);
  options.max_attempts = 1;
  DaemonHandle daemon(options, "grid_cell=hang(1)");
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  Result<QueryResponse> r = client->Call(CellRequest("DTMatcher", 1.0));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->status.IsDeadlineExceeded()) << r->status;

  // The watchdog killed the worker; the daemon answers on.
  QueryRequest ping;
  ping.op = "ping";
  Result<QueryResponse> pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok());
  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, CrashBudgetExhaustionIsStructured) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_crash");
  ServeOptions options = SmallServeOptions(socket_path);
  options.max_attempts = 2;
  DaemonHandle daemon(options, "grid_cell=crash(1)");  // always crash
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status.code(), StatusCode::kInternal) << r->status;
  EXPECT_NE(r->status.message().find("crash"), std::string::npos)
      << r->status;

  // Both attempts crashed and were respawned/settled; daemon intact.
  QueryRequest stats;
  stats.op = "stats";
  Result<QueryResponse> snapshot = client->Call(stats);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->status.ok());
  EXPECT_NE(snapshot->payload.find("\"fairem.serve.worker_crashes\": 2"),
            std::string::npos)
      << snapshot->payload;
  EXPECT_NE(snapshot->payload.find("\"fairem.serve.worker_respawns\": 1"),
            std::string::npos)
      << snapshot->payload;
  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, OverloadShedsWithRetryHint) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_shed");
  ServeOptions options = SmallServeOptions(socket_path);
  options.max_inflight = 1;
  options.max_queue = 1;
  options.max_attempts = 1;
  options.retry_after_s = 0.25;
  DaemonHandle daemon(options, "grid_cell=hang(1)");

  // Fill the worker and the queue from a raw connection (no reply reads,
  // so this test never blocks): request 1 computes (hangs), request 2
  // queues. Short deadlines keep the drain quick afterwards.
  int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  QueryRequest filler = CellRequest("DTMatcher", 3.0);
  filler.id = 1;
  std::string wire =
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(filler));
  filler.id = 2;
  filler.matcher = "NBMatcher";
  wire +=
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(filler));
  ASSERT_TRUE(WriteFullDeadline(fd, wire.data(), wire.size(), 30.0).ok());

  // Give the daemon a moment to admit both, then the next arrival sheds.
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  Result<QueryResponse> shed = Status::Internal("no call made yet");
  bool got_shed = false;
  for (int tries = 0; tries < 20 && !got_shed; ++tries) {
    shed = client->Call(CellRequest("BooleanRuleMatcher", 3.0));
    ASSERT_TRUE(shed.ok()) << shed.status();
    got_shed = shed->status.IsUnavailable();
    if (!got_shed) ::usleep(20 * 1000);
  }
  ASSERT_TRUE(got_shed) << "no shed observed: " << shed->status;
  // The hint is load-aware: the configured base (0.25) scaled up by queue
  // and worker occupancy, bounded at 3x (LoadAwareRetryAfterS).
  EXPECT_GE(shed->retry_after_s, 0.25);
  EXPECT_LE(shed->retry_after_s, 0.75);

  // The two admitted queries deadline out; their replies land on the raw
  // connection. Then the daemon drains cleanly.
  ::close(fd);
  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeTest, DrainShedsQueueAndFlushesDurableMetrics) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_drain");
  const std::string metrics_path =
      ::testing::TempDir() + "serve_drain_metrics." +
      std::to_string(::getpid()) + ".json";
  ::unlink(metrics_path.c_str());
  ServeOptions options = SmallServeOptions(socket_path);
  options.metrics_path = metrics_path;
  DaemonHandle daemon(options, "");

  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  QueryRequest ping;
  ping.op = "ping";
  ASSERT_TRUE(client->Call(ping).ok());

  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drain wrote a durable snapshot with the serve counters.
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << metrics_path;
  std::string snapshot((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(snapshot.find("\"fairem.serve.shutdowns\": 1"),
            std::string::npos);
  EXPECT_NE(snapshot.find("fairem.serve.requests_total"), std::string::npos);
  ::unlink(metrics_path.c_str());

  // Post-drain the socket is gone: connecting fails fast as kUnavailable.
  ServeClientOptions no_wait;
  no_wait.connect_timeout_s = 0.2;
  Result<ServeClient> refused = ServeClient::Connect(socket_path, no_wait);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status();
}

TEST(ServeTest, CheckpointWarmupAndCorruptionRerun) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_ckpt");
  const std::string ckpt_dir = ::testing::TempDir() + "serve_ckpt_dir." +
                               std::to_string(::getpid());
  std::filesystem::remove_all(ckpt_dir);

  ServeOptions options = SmallServeOptions(socket_path);
  options.warm.checkpoint_dir = ckpt_dir;

  // Daemon 1 computes the cell and persists the checkpoint.
  std::string payload;
  {
    DaemonHandle daemon(options, "");
    Result<ServeClient> client = ConnectPatient(socket_path);
    ASSERT_TRUE(client.ok()) << client.status();
    Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->status.ok()) << r->status;
    payload = r->payload;
    int status = daemon.Stop();
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }
  CheckpointStore store(ckpt_dir);
  const std::string key = "Cricket.single.DTMatcher";
  ASSERT_TRUE(store.Load(key).ok());

  // Daemon 2 preloads it: the query is answered from warm cache,
  // byte-identical, with zero cells computed.
  {
    DaemonHandle daemon(options, "");
    Result<ServeClient> client = ConnectPatient(socket_path);
    ASSERT_TRUE(client.ok()) << client.status();
    Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->payload, payload);
    QueryRequest stats;
    stats.op = "stats";
    Result<QueryResponse> snapshot = client->Call(stats);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_NE(snapshot->payload.find("\"fairem.serve.cells_preloaded\": 1"),
              std::string::npos)
        << snapshot->payload;
    EXPECT_NE(snapshot->payload.find("\"fairem.serve.cells_computed\": 0"),
              std::string::npos)
        << snapshot->payload;
    ASSERT_EQ(WEXITSTATUS(daemon.Stop()), 0);
  }

  // Corruption drill: truncate the checkpoint mid-file. Daemon 3 must WARN
  // (fairem.serve.corrupt_checkpoints), skip the preload, and transparently
  // re-run the cell to the same bytes on first query.
  {
    const std::string path = store.PathFor(key);
    Result<std::string> full = ReadFileToString(path);
    ASSERT_TRUE(full.ok());
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << full->substr(0, full->size() / 2);
    out.close();

    DaemonHandle daemon(options, "");
    Result<ServeClient> client = ConnectPatient(socket_path);
    ASSERT_TRUE(client.ok()) << client.status();
    QueryRequest stats;
    stats.op = "stats";
    Result<QueryResponse> snapshot = client->Call(stats);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_NE(
        snapshot->payload.find("\"fairem.serve.corrupt_checkpoints\": 1"),
        std::string::npos)
        << snapshot->payload;
    Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->payload, payload);  // identical recompute
    ASSERT_EQ(WEXITSTATUS(daemon.Stop()), 0);
  }
  std::filesystem::remove_all(ckpt_dir);
}

TEST(ServeTest, CheckpointWithUnknownMeasureIsRecomputed) {
  // A cell checkpoint that parses as JSON but names a measure the grid does
  // not know is corrupt to `fairem grid`; the daemon must agree: count it,
  // skip the preload, and recompute the cell on first query.
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_badmeasure");
  const std::string ckpt_dir = ::testing::TempDir() + "serve_badmeasure." +
                               std::to_string(::getpid());
  std::filesystem::remove_all(ckpt_dir);
  ServeOptions options = SmallServeOptions(socket_path);
  options.warm.checkpoint_dir = ckpt_dir;

  // A fresh daemon's answer, persisted as the cell checkpoint.
  std::string fresh;
  {
    DaemonHandle daemon(options, "");
    Result<ServeClient> client = ConnectPatient(socket_path);
    ASSERT_TRUE(client.ok()) << client.status();
    Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->status.ok()) << r->status;
    fresh = r->payload;
    ASSERT_EQ(WEXITSTATUS(daemon.Stop()), 0);
  }
  const std::string path =
      CheckpointStore(ckpt_dir).PathFor("Cricket.single.DTMatcher");
  Result<std::string> planted = ReadFileToString(path);
  ASSERT_TRUE(planted.ok()) << planted.status();
  const size_t at = planted->find(",\"AP\",");
  ASSERT_NE(at, std::string::npos) << *planted;
  planted->replace(at, 6, ",\"XXXX\",");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << *planted;
  }

  DaemonHandle daemon(options, "");
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  QueryRequest stats;
  stats.op = "stats";
  Result<QueryResponse> before = client->Call(stats);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(before->payload.find("\"fairem.serve.corrupt_checkpoints\": 1"),
            std::string::npos)
      << before->payload;
  EXPECT_NE(before->payload.find("\"fairem.serve.cells_preloaded\": 0"),
            std::string::npos)
      << before->payload;
  Result<QueryResponse> r = client->Call(CellRequest("DTMatcher"));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->status.ok()) << r->status;
  EXPECT_EQ(r->payload, fresh);
  Result<QueryResponse> after = client->Call(stats);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->payload.find("\"fairem.serve.cells_computed\": 1"),
            std::string::npos)
      << after->payload;
  ASSERT_EQ(WEXITSTATUS(daemon.Stop()), 0);
  // The recomputed cell replaced the planted file.
  EXPECT_EQ(ReadFileToString(path).value_or(""), fresh);
  std::filesystem::remove_all(ckpt_dir);
}

TEST(ServeTest, ChaosEveryRequestDefiniteAndPostChaosByteIdentical) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_chaos");
  // The chaos lane exports FAIREM_FAILPOINTS (the forked daemon arms it
  // on first failpoint use); standalone runs inject a default crash mix.
  const char* env_spec = std::getenv("FAIREM_FAILPOINTS");
  const std::string spec =
      env_spec != nullptr ? "" : "grid_cell=crash(0.5)";
  ServeOptions options = SmallServeOptions(socket_path);
  options.max_attempts = 2;
  options.default_deadline_s = 30.0;
  DaemonHandle daemon(options, spec);
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_seconds = 0.02;
  const char* matchers[] = {"BooleanRuleMatcher", "DTMatcher", "NBMatcher"};
  int definite = 0;
  for (int i = 0; i < 9; ++i) {
    QueryRequest request = (i % 3 == 0)
                               ? QueryRequest{}
                               : CellRequest(matchers[i % 3], 30.0);
    if (i % 3 == 0) request.op = "ping";
    Result<QueryResponse> r = client->CallWithRetry(request, retry, 100 + i);
    if (!r.ok()) {
      // Transport failure is definite too, but the client must recover.
      ASSERT_FALSE(r.status().ToString().empty());
    }
    ++definite;
    if (!client->connected()) {
      Result<ServeClient> fresh = ConnectPatient(socket_path);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      *client = std::move(*fresh);
    }
  }
  EXPECT_EQ(definite, 9);

  // Post-chaos: the probed cell must eventually succeed (fresh spawns draw
  // fresh failpoint streams) and then repeat byte-identically from cache.
  std::string first;
  for (int tries = 0; tries < 30 && first.empty(); ++tries) {
    Result<QueryResponse> r =
        client->CallWithRetry(CellRequest("DTMatcher", 30.0), retry,
                              500 + tries);
    if (r.ok() && r->status.ok()) first = r->payload;
    if (!client->connected()) {
      Result<ServeClient> fresh = ConnectPatient(socket_path);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      *client = std::move(*fresh);
    }
  }
  ASSERT_FALSE(first.empty()) << "cell never succeeded under chaos";
  Result<QueryResponse> again =
      client->CallWithRetry(CellRequest("DTMatcher", 30.0), retry, 999);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_TRUE(again->status.ok()) << again->status;
  EXPECT_EQ(again->payload, first);

  int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}


// ---------------------------------------------------------------------------
// Profiling: a query worker restarts the profiler and ships its stacks as a
// PROF frame; the daemon merges them, so `fairem serve --profile_out` holds
// the workers' samples, not only its own poll loop.

TEST(ServeTest, ProfiledDaemonMergesWorkerProfiles) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_prof");
  const std::string folded_path =
      "/tmp/fairem_serve_prof." + std::to_string(::getpid()) + ".folded";
  std::filesystem::remove(folded_path);
  ServeOptions options = SmallServeOptions(socket_path);
  // One uncached DeepMatcher cell on DBLP-ACM computes for a few hundred
  // milliseconds: long enough for the worker to take samples.
  options.warm.datasets = {"DBLP-ACM"};
  ObsOptions obs;
  obs.profile_out = folded_path;
  obs.profile_hz = 997;
  DaemonHandle daemon(options, "", obs);
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  QueryRequest cell = CellRequest("DeepMatcher");
  cell.dataset = "DBLP-ACM";
  Result<QueryResponse> r = client->Call(cell);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->status.ok()) << r->status;

  QueryRequest stats;
  stats.op = "stats";
  r = client->Call(stats);
  ASSERT_TRUE(r.ok()) << r.status();
  Result<MetricsSnapshot> snapshot = MetricsSnapshotFromJson(r->payload);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_GE(snapshot->counters["fairem.profile.profiles_merged"], 1u);
  client->Close();

  const int status = daemon.Stop();
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  std::ifstream in(folded_path);
  const std::string folded((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(folded.find("process:worker_"), std::string::npos) << folded;
  std::filesystem::remove(folded_path);
}

// ---------------------------------------------------------------------------
// HLTH health probes (DESIGN.md §15): answered inline, bypassing admission,
// interleaving cleanly with queries on the same connection.

TEST(ServeTest, HealthProbeAnswersInline) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_hlth");
  DaemonHandle daemon(SmallServeOptions(socket_path), "");
  int fd = RawConnect(socket_path);
  ASSERT_GE(fd, 0);
  HealthReport probe;
  probe.probe = true;
  probe.id = 42;
  ASSERT_TRUE(WriteServeMessage(fd, kFrameHealth,
                                SerializeHealthReport(probe), 60.0)
                  .ok());
  FrameDecoder decoder;
  Result<ServeMessage> reply = ReadServeMessage(fd, &decoder, 60.0);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, std::string(kFrameHealth));
  Result<HealthReport> report = ParseHealthReport(reply->bytes);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->id, 42u);
  EXPECT_FALSE(report->probe);
  EXPECT_TRUE(report->serving);
  EXPECT_GE(report->retry_after_s, 0.0);

  // The same connection keeps working for queries afterwards: probes and
  // queries interleave without desync.
  QueryRequest ping;
  ping.op = "ping";
  ping.id = 7;
  ASSERT_TRUE(WriteServeMessage(fd, kFrameQueryRequest,
                                SerializeQueryRequest(ping), 60.0)
                  .ok());
  Result<ServeMessage> pong = ReadServeMessage(fd, &decoder, 60.0);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->type, std::string(kFrameQueryResponse));
  Result<QueryResponse> parsed = ParseQueryResponse(pong->bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->payload, "pong");
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Satellite: the shed hint scales with load so retrying clients converge.

TEST(ServeTest, LoadAwareRetryHintIsMonotone) {
  const double base = 0.05;
  EXPECT_DOUBLE_EQ(LoadAwareRetryAfterS(base, 0, 8, 0, 2), base);
  double prev = 0.0;
  for (int depth = 0; depth <= 8; ++depth) {
    const double hint = LoadAwareRetryAfterS(base, depth, 8, 0, 2);
    EXPECT_GE(hint, prev) << "hint must not shrink as the queue fills";
    prev = hint;
  }
  prev = 0.0;
  for (int inflight = 0; inflight <= 4; ++inflight) {
    const double hint = LoadAwareRetryAfterS(base, 0, 8, inflight, 4);
    EXPECT_GE(hint, prev) << "hint must not shrink as inflight grows";
    prev = hint;
  }
  EXPECT_GT(LoadAwareRetryAfterS(base, 4, 8, 2, 2),
            LoadAwareRetryAfterS(base, 4, 8, 0, 2));
  // Bounded: base + full queue + full inflight caps at 3x base.
  EXPECT_LE(LoadAwareRetryAfterS(base, 100, 8, 100, 2), 3.0 * base + 1e-12);
  // Degenerate capacities and a disabled base contribute nothing.
  EXPECT_DOUBLE_EQ(LoadAwareRetryAfterS(base, 5, 0, 5, 0), base);
  EXPECT_DOUBLE_EQ(LoadAwareRetryAfterS(0.0, 5, 8, 1, 2), 0.0);
}

// ---------------------------------------------------------------------------
// Satellite regression: CallWithRetry must not sleep past the query
// deadline, no matter how large the server's retry_after_s hint is.

/// Forked stub daemon that sheds every query with a pathologically large
/// retry hint — the input that used to make the client overshoot.
class SheddingStub {
 public:
  explicit SheddingStub(const std::string& socket_path) {
    pid_ = ::fork();
    if (pid_ == 0) {
      ServeForever(socket_path);
      ::_exit(0);
    }
  }

  ~SheddingStub() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

 private:
  static void ServeForever(const std::string& socket_path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) ::_exit(1);
    ::unlink(socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 8) != 0) {
      ::_exit(1);
    }
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      FrameDecoder decoder;
      for (;;) {
        Result<ServeMessage> message = ReadServeMessage(fd, &decoder, 30.0);
        if (!message.ok()) break;
        Result<QueryRequest> request = ParseQueryRequest(message->bytes);
        QueryResponse response;
        if (request.ok()) response.id = request->id;
        response.status = Status::Unavailable("stub shed");
        response.retry_after_s = 5.0;
        if (!WriteServeMessage(fd, kFrameQueryResponse,
                               SerializeQueryResponse(response), 30.0)
                 .ok()) {
          break;
        }
      }
      ::close(fd);
    }
  }

  pid_t pid_ = -1;
};

TEST(ServeClientRetryTest, BackoffNeverOvershootsQueryDeadline) {
  IgnoreSigpipe();
  const std::string socket_path = FreshSocketPath("serve_shed_stub");
  SheddingStub stub(socket_path);
  Result<ServeClient> client = ConnectPatient(socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  std::vector<double> sleeps;
  SetRetrySleepFnForTest([&](double s) { sleeps.push_back(s); });
  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.deadline_seconds = 0.0;  // only the query deadline bounds the call
  QueryRequest request = CellRequest("DTMatcher", /*deadline_s=*/0.5);
  Result<QueryResponse> response = client->CallWithRetry(request, retry);
  SetRetrySleepFnForTest(nullptr);

  // The 5 s hint dwarfs the 0.5 s query deadline: the client must refuse
  // to sleep and return a prompt kDeadlineExceeded naming the last error,
  // not a late kUnavailable after ~35 s of backoff.
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status;
  EXPECT_NE(response->status.ToString().find("stub shed"),
            std::string::npos)
      << response->status;
  double slept = 0.0;
  for (double s : sleeps) slept += s;
  EXPECT_LE(slept, 0.5) << "cumulative backoff overshot the query deadline";
}

}  // namespace
}  // namespace fairem
