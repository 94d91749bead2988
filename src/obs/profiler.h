#ifndef FAIREM_OBS_PROFILER_H_
#define FAIREM_OBS_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace fairem {

// ---------------------------------------------------------------------------
// Sampling profiler (DESIGN.md §13).
//
// A setitimer-driven wall/CPU profiler: every tick a signal handler walks
// the frame-pointer chain of whichever thread got the signal, tags the
// backtrace with the innermost open Span on that thread, and appends it to
// a preallocated lock-free sample buffer. Samples fold into the Brendan
// Gregg "folded stacks" text format (one `frame;frame;...;leaf count` line
// per unique stack), ready for flamegraph.pl / speedscope, and aggregate by
// pipeline stage even where symbols are thin.
//
// Off by default: a Span constructor pays one relaxed atomic load and the
// handler is never installed. Forked grid workers re-arm with
// RestartAfterFork (interval timers do not survive fork) and ship their
// folded text back over the FEMTEL1 PROF frame; the supervisor merges it
// here via AbsorbFolded.

// ------------------------------------------------------------ folded text --

/// A folded-stacks profile: `stack text -> sample count`. Stack text is
/// root-first, ';'-separated; our own collector prefixes every stack with
/// `process:<label>` and `span:<stage>` frames so one merged file still
/// splits by worker process and by pipeline stage.
struct FoldedProfile {
  std::map<std::string, uint64_t> stacks;

  uint64_t TotalSamples() const;
  void Merge(const FoldedProfile& other);
  /// One `stack count` line per entry, sorted by stack text (deterministic).
  std::string ToText() const;
};

/// Inverse of ToText. Lines that do not parse (no trailing count) are
/// skipped, so a truncated file still yields its intact lines.
FoldedProfile FoldedProfileFromText(const std::string& text);

/// Sample count per `process:` root frame of a folded profile — how many
/// samples each process contributed to a merged file.
std::map<std::string, uint64_t> ProcessSampleCounts(
    const FoldedProfile& profile);

/// Per-frame aggregate: `self` counts samples where the frame is the leaf,
/// `total` counts samples where it appears anywhere (once per stack, so a
/// recursive frame is not double-counted). `process:`/`span:` pseudo-frames
/// are excluded.
struct ProfTopRow {
  std::string frame;
  uint64_t self = 0;
  uint64_t total = 0;
};
std::vector<ProfTopRow> AggregateByFrame(const FoldedProfile& profile);

/// Per-stage aggregate over the `span:` pseudo-frame. Samples taken outside
/// any Span appear as the "(untagged)" stage and do not count as attributed.
struct StageShare {
  std::string stage;
  uint64_t samples = 0;
  double share = 0.0;  // samples / total
};
struct StageBreakdown {
  std::vector<StageShare> stages;  // sorted by samples, descending
  uint64_t total_samples = 0;
  uint64_t attributed_samples = 0;
  double AttributedFraction() const;
};
StageBreakdown AggregateByStage(const FoldedProfile& profile);

/// The share drift gate behind `proftop --compare` and `tracetop
/// --compare`, over name -> share maps: one human-readable line per name
/// whose share differs by more than `tolerance` (absolute), skipping names
/// under `min_share` in both maps — small shares are all noise. Empty
/// result = the shares agree.
std::vector<std::string> CompareShares(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after, double tolerance,
    double min_share);

/// CompareShares over the per-stage sample shares of two profiles.
std::vector<std::string> CompareStageShares(const FoldedProfile& a,
                                            const FoldedProfile& b,
                                            double tolerance,
                                            double min_share);

/// `fairem proftop` tables. ByStack is a top-`top_n` self/total table over
/// symbolized frames; ByStage lists every stage plus a final
/// "attributed N/M samples (P%)" line (the line bench_smoke greps).
std::string RenderProfTopByStack(const FoldedProfile& profile, int top_n);
std::string RenderProfTopByStage(const FoldedProfile& profile);

// ---------------------------------------------------------------- sampler --

enum class ProfileClock {
  kCpu,   // ITIMER_PROF: ticks in process CPU time (user+system)
  kWall,  // ITIMER_REAL: ticks in wall time, samples blocked time too
};

struct ProfilerOptions {
  int hz = 97;  // deliberately not a round number: avoids lockstep bias
  ProfileClock clock = ProfileClock::kCpu;
  /// Sample slots preallocated at Start; the handler drops (and counts)
  /// samples once the buffer is full. 64Ki slots ≈ 11 CPU-minutes at 97 Hz.
  size_t capacity = 1 << 16;
  /// Root pseudo-frame of every collected stack; the supervisor gives each
  /// worker "worker_<pid>" via RestartAfterFork.
  std::string process_label = "parent";
};

class Profiler {
 public:
  static Profiler& Global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Allocates the sample buffer, installs the signal handler, registers
  /// the calling thread's stack bounds, and arms the interval timer.
  /// Fails if already active or on out-of-range options.
  Status Start(const ProfilerOptions& options = {});

  /// Disarms the timer and stops accepting samples; collected samples stay
  /// available to Collect/ExportMetrics. No-op when not active.
  Status Stop();

  bool active() const { return active_; }
  int hz() const { return options_.hz; }

  /// Re-arms in a forked child: the kernel clears interval timers across
  /// fork, and the inherited sample buffer holds the parent's samples. Must
  /// be called before the child does profiled work; resets the buffer and
  /// relabels collected stacks with `process_label`. No-op when the parent
  /// was not profiling at fork time.
  Status RestartAfterFork(const std::string& process_label);

  /// Folds and symbolizes this process's own samples (dladdr + demangle;
  /// unresolvable PCs render as `module+0x<offset>`). Callable while
  /// sampling is active — in-flight samples are simply not yet visible.
  FoldedProfile Collect();

  /// Merges a folded profile shipped by another process (FEMTEL1 PROF frame
  /// or profile sidecar). Thread-safe; dedup is the caller's business.
  void AbsorbFolded(const std::string& folded_text);

  /// This process's samples plus everything absorbed from workers.
  FoldedProfile MergedProfile();

  /// Counts samples collected since the previous call into
  /// `fairem.profile.samples`, `fairem.profile.dropped_samples`, and
  /// per-stage `fairem.profile.stage.<stage>.samples` counters. Counters
  /// (not gauges) so worker deltas merge additively across processes.
  void ExportMetrics();

  /// Derives `fairem.profile.stage.<stage>.cpu_seconds` gauges from the
  /// `.samples` counters currently in the registry (samples / hz). Parent
  /// only, after worker deltas merged — workers must not ship these gauges
  /// or they would clobber the parent's aggregation.
  void ExportStageCpuGauges();

  uint64_t SampleCount() const;
  uint64_t DroppedCount() const;

  /// Records the calling thread's stack bounds for the frame-pointer walk;
  /// a thread that never registered gets leaf-PC-only samples. Called by
  /// Start for the calling thread and by the thread pool for its workers.
  /// Cheap and idempotent; safe to call with the profiler off.
  static void RegisterCurrentThread();

 private:
  // The sample buffer and the flags the signal handler touches live as
  // file-scope globals in profiler.cc: the handler must reach them without
  // dereferencing an object pointer whose initialization it could interrupt.
  Status Arm();

  bool active_ = false;
  ProfilerOptions options_;
  size_t exported_upto_ = 0;
  uint64_t exported_dropped_ = 0;

  std::mutex merge_mu_;
  FoldedProfile absorbed_;
};

// -------------------------------------------------------------- span hooks --

namespace profiler_internal {
extern std::atomic<bool> g_stage_tracking;
}  // namespace profiler_internal

/// True while a profiler is sampling — the only check Span pays when off.
inline bool ProfilerStageTrackingEnabled() {
  return profiler_internal::g_stage_tracking.load(std::memory_order_relaxed);
}

/// Process resource snapshot taken at span boundaries while profiling:
/// resident set from /proc/self/statm, cumulative storage I/O from
/// /proc/self/io. `ok` is false when the files are unreadable.
struct ProfSpanResources {
  bool ok = false;
  int64_t rss_kb = 0;
  uint64_t io_read_bytes = 0;
  uint64_t io_write_bytes = 0;
};

/// Pushes `name` onto the calling thread's stage stack (fixed-size buffers
/// the signal handler reads without allocation) and snapshots resources.
ProfSpanResources ProfilerSpanBegin(const char* name, size_t len);

/// Pops the stage and attributes the resource deltas since `start` to it:
/// `fairem.profile.span.<name>.io_{read,write}_bytes` counters and an
/// `.rss_delta_kb` gauge.
void ProfilerSpanEnd(const ProfSpanResources& start);

/// `fairem.proc.{peak_rss_mb,user_cpu_s,sys_cpu_s,vol_ctx_switches,
/// invol_ctx_switches}` gauges from getrusage(RUSAGE_SELF) — the
/// end-of-run resource footprint every bench/CLI run exports so benchdiff
/// can gate on memory, not just time.
void EmitProcessResourceGauges();

}  // namespace fairem

#endif  // FAIREM_OBS_PROFILER_H_
