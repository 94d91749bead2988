#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/datagen/benchmark_suite.h"
#include "src/harness/experiment.h"
#include "src/obs/metrics.h"
#include "src/robust/checkpoint.h"
#include "src/robust/failpoint.h"
#include "src/robust/retry.h"
#include "src/robust/supervisor.h"

namespace fairem {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Disarms failpoints and restores the real retry sleep when a test exits,
/// even on assertion failure — both are process-global.
class RobustGuard {
 public:
  RobustGuard() { FailpointRegistry::Global().Clear(); }
  ~RobustGuard() {
    FailpointRegistry::Global().Clear();
    SetRetrySleepFnForTest(nullptr);
  }
};

std::string FreshTempDir(const std::string& leaf) {
  std::string dir = ::testing::TempDir() + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Supervisor unit tests: closure tasks in forked workers.

TEST(SupervisorTest, ParallelTasksReturnInTaskOrder) {
  SupervisorOptions opts;
  opts.jobs = 4;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({"task-" + std::to_string(i),
                     [i]() -> Result<std::string> {
                       return "payload-" + std::to_string(i);
                     }});
  }
  uint64_t spawned_before = CounterValue("fairem.supervisor.workers_spawned");
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(outcomes[i].kind, TaskOutcome::Kind::kOk) << i;
    EXPECT_EQ(outcomes[i].payload, "payload-" + std::to_string(i)) << i;
    EXPECT_EQ(outcomes[i].attempts, 1) << i;
    EXPECT_GT(outcomes[i].peak_rss_mb, 0.0) << i;
  }
  EXPECT_EQ(CounterValue("fairem.supervisor.workers_spawned") - spawned_before,
            6u);
}

TEST(SupervisorTest, CrashIsContainedAndRespawnSucceeds) {
  // The first attempt aborts after dropping a marker file; the respawn sees
  // the marker and succeeds — worker crashes never take down the supervisor.
  std::string dir = FreshTempDir("fairem_sup_crash_once");
  std::filesystem::create_directories(dir);
  std::string marker = dir + "/crashed_once";
  SupervisorOptions opts;
  opts.max_attempts = 3;
  Supervisor supervisor(opts);
  uint64_t crashed_before = CounterValue("fairem.supervisor.tasks_crashed");
  uint64_t respawns_before = CounterValue("fairem.supervisor.respawns");
  std::vector<Supervisor::Task> tasks{
      {"crash-once", [marker]() -> Result<std::string> {
         if (!std::filesystem::exists(marker)) {
           std::ofstream(marker) << "x";
           std::abort();
         }
         return std::string("recovered");
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[0].payload, "recovered");
  EXPECT_EQ(outcomes[0].attempts, 2);
  EXPECT_EQ(CounterValue("fairem.supervisor.tasks_crashed") - crashed_before,
            0u);  // the task recovered, so it is not counted as crashed
  EXPECT_EQ(CounterValue("fairem.supervisor.respawns") - respawns_before, 1u);
}

TEST(SupervisorTest, HangIsKilledAtWatchdogDeadline) {
  SupervisorOptions opts;
  opts.cell_timeout_s = 0.3;
  opts.max_attempts = 1;
  Supervisor supervisor(opts);
  uint64_t kills_before = CounterValue("fairem.supervisor.watchdog_kills");
  auto start = std::chrono::steady_clock::now();
  std::vector<Supervisor::Task> tasks{
      {"hang", []() -> Result<std::string> {
         for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kTimedOut);
  EXPECT_NE(outcomes[0].status.ToString().find("watchdog"),
            std::string::npos);
  // Bounded: the forever-hang was killed close to the 0.3s deadline, not
  // left to run.
  EXPECT_LT(elapsed, 30.0);
  EXPECT_GE(CounterValue("fairem.supervisor.watchdog_kills") - kills_before,
            1u);
}

TEST(SupervisorTest, NonRetryableTaskErrorFailsWithoutRespawn) {
  SupervisorOptions opts;
  opts.max_attempts = 3;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks{
      {"bad-input", []() -> Result<std::string> {
         return Status::InvalidArgument("bad cell spec");
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kFailed);
  EXPECT_EQ(outcomes[0].attempts, 1);
  // The worker ships its Status back over the pipe: code and message both
  // survive the process boundary.
  EXPECT_TRUE(outcomes[0].status.IsInvalidArgument());
  EXPECT_NE(outcomes[0].status.ToString().find("bad cell spec"),
            std::string::npos);
}

TEST(SupervisorTest, RetryableTaskErrorConsumesRespawnBudget) {
  SupervisorOptions opts;
  opts.max_attempts = 2;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks{
      {"always-down", []() -> Result<std::string> {
         return Status::Internal("transient but never heals");
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kFailed);
  EXPECT_EQ(outcomes[0].attempts, 2);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kInternal);
}

TEST(SupervisorTest, LargePayloadSurvivesThePipe) {
  // 1 MiB payload — far past the kernel pipe buffer, so this only passes if
  // the supervisor drains the pipe while the worker is still writing.
  const size_t kSize = 1 << 20;
  Supervisor supervisor({});
  std::vector<Supervisor::Task> tasks{
      {"big", [kSize]() -> Result<std::string> {
         std::string payload(kSize, 'x');
         for (size_t i = 0; i < payload.size(); i += 4096) {
           payload[i] = static_cast<char>('a' + (i / 4096) % 26);
         }
         return payload;
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].kind, TaskOutcome::Kind::kOk);
  ASSERT_EQ(outcomes[0].payload.size(), kSize);
  for (size_t i = 0; i < kSize; i += 4096) {
    ASSERT_EQ(outcomes[0].payload[i],
              static_cast<char>('a' + (i / 4096) % 26));
  }
}

TEST(SupervisorTest, AddressSpaceLimitContainsRunawayWorker) {
  SupervisorOptions opts;
  opts.cell_max_rss_mb = 256;
  opts.max_attempts = 1;
  Supervisor supervisor(opts);
  std::vector<Supervisor::Task> tasks{
      {"oom", []() -> Result<std::string> {
         // Try to allocate ~1 GiB in 64 MiB strides, touching every page so
         // the memory is really committed; RLIMIT_AS makes this die long
         // before completion.
         std::vector<char*> chunks;
         for (int i = 0; i < 16; ++i) {
           char* chunk = new char[64 << 20];
           for (size_t off = 0; off < (64u << 20); off += 4096) {
             chunk[off] = 1;
           }
           chunks.push_back(chunk);
         }
         return std::string("allocated everything?!");
       }}};
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run(tasks)).value();
  ASSERT_EQ(outcomes.size(), 1u);
  // bad_alloc in the worker → abort → contained as a crash, never an
  // allocation failure in the supervisor process.
  EXPECT_EQ(outcomes[0].kind, TaskOutcome::Kind::kCrashed);
}

TEST(SupervisorTest, EmptyTaskListIsANoOp) {
  Supervisor supervisor({});
  std::vector<TaskOutcome> outcomes =
      std::move(supervisor.Run({})).value();
  EXPECT_TRUE(outcomes.empty());
}

// ---------------------------------------------------------------------------
// Cooperative shutdown.

TEST(ShutdownGuardTest, LatchesSignalAndFreshGuardClears) {
  {
    ShutdownGuard guard;
    EXPECT_FALSE(ShutdownGuard::requested());
    std::raise(SIGTERM);  // caught by the guard's handler, latched
    EXPECT_TRUE(ShutdownGuard::requested());
    EXPECT_EQ(ShutdownGuard::signal_number(), SIGTERM);
  }
  // A new guard re-arms and clears the previous latch.
  ShutdownGuard fresh;
  EXPECT_FALSE(ShutdownGuard::requested());
  EXPECT_EQ(InterruptExitCode(SIGTERM), 143);
  EXPECT_EQ(InterruptExitCode(SIGINT), 130);
}

TEST(ShutdownGuardTest, PendingShutdownCancelsSupervisedRun) {
  ShutdownGuard guard;
  std::raise(SIGINT);
  ASSERT_TRUE(ShutdownGuard::requested());
  uint64_t shutdowns_before = CounterValue("fairem.supervisor.shutdowns");
  Supervisor supervisor({});
  std::vector<Supervisor::Task> tasks{
      {"never-runs",
       []() -> Result<std::string> { return std::string("unreachable"); }}};
  Result<std::vector<TaskOutcome>> r = supervisor.Run(tasks);
  EXPECT_TRUE(r.status().IsCancelled());
  EXPECT_EQ(CounterValue("fairem.supervisor.shutdowns") - shutdowns_before,
            1u);
  ShutdownGuard clear_latch_for_later_tests;
}

// ---------------------------------------------------------------------------
// Checkpoint durability.

TEST(CheckpointDurabilityTest, SaveCreatesMissingNestedDirsAndFsyncs) {
  std::string root = FreshTempDir("fairem_ckpt_durable");
  // The directory — including parents — does not exist yet; Save must
  // create it rather than fail.
  CheckpointStore store(root + "/nested/deeper");
  ASSERT_FALSE(std::filesystem::exists(root));
  ASSERT_TRUE(store.Save("cell", "payload-v1").ok());
  EXPECT_EQ(std::move(store.Load("cell")).value(), "payload-v1");
  ASSERT_TRUE(store.Save("cell", "payload-v2").ok());
  EXPECT_EQ(std::move(store.Load("cell")).value(), "payload-v2");
  // The temp file was renamed away, not left behind: the directory holds
  // only the published file.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    files.push_back(entry.path().filename());
  }
  EXPECT_EQ(files, std::vector<std::string>{"cell.json"});
}

// ---------------------------------------------------------------------------
// Grid-level supervised runs. A small matcher subset keeps these fast.

std::vector<MatcherKind> SkipAllExcept(const std::vector<MatcherKind>& keep) {
  std::vector<MatcherKind> skip;
  for (MatcherKind kind : AllMatcherKinds()) {
    if (std::find(keep.begin(), keep.end(), kind) == keep.end()) {
      skip.push_back(kind);
    }
  }
  return skip;
}

GridRunOptions SmallGridOptions() {
  GridRunOptions options;
  options.audit.reference = AuditReference::kComplement;
  options.skip = SkipAllExcept(
      {MatcherKind::kDT, MatcherKind::kLogReg, MatcherKind::kNB,
       MatcherKind::kBooleanRule});
  return options;
}

TEST(SupervisedGridTest, ParallelReportIsByteIdenticalToSequential) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  std::string sequential =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_FALSE(sequential.empty());

  options.jobs = 4;
  std::string parallel =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(parallel, sequential);

  // Pairwise mode too — its grid has different columns.
  options.jobs = 1;
  std::string seq_pairwise =
      std::move(UnfairnessGridReport(ds, true, options)).value();
  options.jobs = 4;
  std::string par_pairwise =
      std::move(UnfairnessGridReport(ds, true, options)).value();
  EXPECT_EQ(par_pairwise, seq_pairwise);
}

TEST(SupervisedGridTest, HangFailpointIsKilledAndDegradesToErrorCell) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.jobs = 2;
  options.cell_timeout_s = 1.0;
  options.retry.max_attempts = 1;
  uint64_t timeouts_before = CounterValue("fairem.supervisor.tasks_timed_out");
  // The failpoint spec is inherited by the forked workers, so only the
  // NBMatcher worker hangs; the watchdog kills it and the grid degrades
  // that one cell.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("matcher_fit.NBMatcher=hang(1)")
                  .ok());
  std::string report =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();
  EXPECT_NE(report.find("errors (cells unavailable after retries):"),
            std::string::npos);
  EXPECT_NE(report.find("NBMatcher:"), std::string::npos);
  EXPECT_NE(report.find("watchdog"), std::string::npos);
  EXPECT_EQ(
      CounterValue("fairem.supervisor.tasks_timed_out") - timeouts_before,
      1u);
}

TEST(SupervisedGridTest, CrashFailpointIsContainedAndRespawned) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  options.jobs = 2;
  options.retry.max_attempts = 2;
  uint64_t errors_before = CounterValue("fairem.robust.grid_error_cells");
  uint64_t respawns_before = CounterValue("fairem.supervisor.respawns");
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("matcher_fit.NBMatcher=crash(1)")
                  .ok());
  std::string report =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();
  // The crashing worker was respawned once (budget 2) and then degraded;
  // the supervisor itself never died and the healthy cells rendered.
  EXPECT_EQ(CounterValue("fairem.robust.grid_error_cells") - errors_before,
            1u);
  EXPECT_EQ(CounterValue("fairem.supervisor.respawns") - respawns_before, 1u);
  EXPECT_NE(report.find("errors (cells unavailable after retries):"),
            std::string::npos);
  EXPECT_NE(report.find("NBMatcher:"), std::string::npos);
  EXPECT_NE(report.find("DT"), std::string::npos);
}

TEST(SupervisedGridTest, WorkerCheckpointsFeedASequentialResume) {
  RobustGuard guard;
  EMDataset ds =
      std::move(GenerateDataset(DatasetKind::kFacultyMatch, 0.3)).value();
  GridRunOptions options = SmallGridOptions();
  std::string baseline =
      std::move(UnfairnessGridReport(ds, false, options)).value();

  // Parallel run persists every cell from inside the workers...
  options.checkpoint_dir = FreshTempDir("fairem_ckpt_supervised");
  options.jobs = 4;
  std::string parallel =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  EXPECT_EQ(parallel, baseline);

  // ...and a later sequential run replays them instead of recomputing: a
  // certain fit failure proves no cell actually re-ran.
  options.jobs = 1;
  uint64_t loaded_before =
      CounterValue("fairem.robust.checkpoint_cells_loaded");
  ASSERT_TRUE(
      FailpointRegistry::Global().Configure("matcher_fit=error(1)").ok());
  std::string resumed =
      std::move(UnfairnessGridReport(ds, false, options)).value();
  FailpointRegistry::Global().Clear();
  EXPECT_EQ(resumed, baseline);
  EXPECT_EQ(
      CounterValue("fairem.robust.checkpoint_cells_loaded") - loaded_before,
      4u);
}

}  // namespace
}  // namespace fairem
