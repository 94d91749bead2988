#include "src/obs/obs.h"

#include <cstdlib>
#include <mutex>

#include "src/obs/profiler.h"
#include "src/text/simd.h"
#include "src/util/durable_file.h"
#include "src/util/flags.h"

namespace fairem {
namespace {

std::mutex g_atexit_mu;
ObsOptions* g_atexit_options = nullptr;

void FlushAtExit() {
  ObsOptions options;
  {
    std::lock_guard<std::mutex> lock(g_atexit_mu);
    if (g_atexit_options == nullptr) return;
    options = *g_atexit_options;
  }
  Status st = FlushObsOutputs(options);
  if (!st.ok()) {
    FAIREM_LOG(ERROR) << "failed to flush observability outputs"
                      << LogKv("status", st.ToString());
  }
}

}  // namespace

void RegisterObsFlags(FlagSet* flags, ObsOptions* options,
                      std::optional<std::string>* failpoints) {
  flags->String("--log_level", &options->log_level, "L");
  flags->String("--trace_out", &options->trace_out, "FILE");
  flags->String("--metrics_out", &options->metrics_out, "FILE");
  flags->Choice("--metrics_format", &options->metrics_format,
                {{"json", MetricsFormat::kJson},
                 {"prom", MetricsFormat::kProm},
                 {"prometheus", MetricsFormat::kProm}},
                /*fold_case=*/true);
  flags->String("--profile_out", &options->profile_out, "FILE");
  flags->Number("--profile_hz", &options->profile_hz, "N", 1);
  flags->Choice("--profile_mode", &options->profile_mode,
                {{"cpu", ProfileClock::kCpu},
                 {"wall", ProfileClock::kWall},
                 {"", ProfileClock::kCpu}});
  flags->String("--failpoints", failpoints, "SPEC");
}

Status ApplyObsOptions(const ObsOptions& options) {
  if (!options.log_level.empty()) {
    FAIREM_ASSIGN_OR_RETURN(LogLevel level, ParseLogLevel(options.log_level));
    SetGlobalLogLevel(level);
  }
  if (!options.trace_out.empty()) {
    Tracer::Global().set_enabled(true);
  }
  if (!options.profile_out.empty()) {
    ProfilerOptions profiler_options;
    profiler_options.hz = options.profile_hz;
    profiler_options.clock = options.profile_mode;
    FAIREM_RETURN_NOT_OK(Profiler::Global().Start(profiler_options));
  }
  return Status::OK();
}

Status FlushObsOutputs(const ObsOptions& options) {
  // Drain this thread's batched kernel tallies (and pin the dispatch-level
  // gauge) so the snapshot below carries the fairem.simd.* metrics.
  FlushSimdTelemetry();
  if (!options.trace_out.empty()) {
    FAIREM_RETURN_NOT_OK(Tracer::Global().WriteChromeTrace(options.trace_out));
    FAIREM_LOG(INFO) << "wrote Chrome trace"
                     << LogKv("path", options.trace_out)
                     << LogKv("spans", Tracer::Global().Events().size());
    FAIREM_LOG(INFO) << "span summary:\n" << Tracer::Global().FlatSummary();
  }
  if (!options.profile_out.empty()) {
    // Stop before collecting so no sample lands mid-symbolization, then
    // fold the profiler's own numbers into the snapshot the metrics file
    // below captures.
    Profiler& profiler = Profiler::Global();
    if (profiler.active()) (void)profiler.Stop();
    profiler.ExportMetrics();
    profiler.ExportStageCpuGauges();
    const FoldedProfile merged = profiler.MergedProfile();
    FAIREM_RETURN_NOT_OK(
        WriteFileDurable(options.profile_out, merged.ToText()));
    FAIREM_LOG(INFO) << "wrote folded profile"
                     << LogKv("path", options.profile_out)
                     << LogKv("samples", merged.TotalSamples())
                     << LogKv("dropped", profiler.DroppedCount());
  }
  // Process-wide rusage gauges ride along with every flush — they cost one
  // getrusage call and give each bench/CLI run its peak RSS and CPU split.
  EmitProcessResourceGauges();
  if (!options.metrics_out.empty()) {
    FAIREM_RETURN_NOT_OK(MetricsRegistry::Global().WriteFile(
        options.metrics_out, options.metrics_format));
    FAIREM_LOG(INFO) << "wrote metrics snapshot"
                     << LogKv("path", options.metrics_out)
                     << LogKv("format",
                              options.metrics_format == MetricsFormat::kProm
                                  ? "prom"
                                  : "json");
  }
  return Status::OK();
}

void FlushObsOutputsAtExit(const ObsOptions& options) {
  std::lock_guard<std::mutex> lock(g_atexit_mu);
  if (g_atexit_options == nullptr) {
    g_atexit_options = new ObsOptions;
    std::atexit(FlushAtExit);
  }
  *g_atexit_options = options;
}

}  // namespace fairem
