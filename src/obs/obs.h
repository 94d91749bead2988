#ifndef FAIREM_OBS_OBS_H_
#define FAIREM_OBS_OBS_H_

#include <optional>
#include <string>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace fairem {

class FlagSet;

/// The observability knobs of every flag-parsing binary; RegisterObsFlags
/// binds them to --log_level, --trace_out, --metrics_out, --metrics_format,
/// --profile_out, --profile_hz and --profile_mode.
struct ObsOptions {
  std::string log_level;   // empty = leave the env/default level alone
  std::string trace_out;   // empty = tracing stays disabled, no file
  std::string metrics_out; // empty = no metrics file
  MetricsFormat metrics_format = MetricsFormat::kJson;
  std::string profile_out;  // empty = profiler stays off, no file
  int profile_hz = 97;
  ProfileClock profile_mode = ProfileClock::kCpu;
};

/// Registers the observability flags into `options`, and --failpoints into
/// `failpoints`, which each front end arms with its own seed. The format is
/// json, prom or prometheus in any case; the clock cpu, wall or empty (cpu).
void RegisterObsFlags(FlagSet* flags, ObsOptions* options,
                      std::optional<std::string>* failpoints);

/// Applies the options to the global logger/tracer/profiler. Tracing is
/// enabled iff trace_out is non-empty, and the sampling profiler starts iff
/// profile_out is non-empty, preserving the zero-overhead default path.
Status ApplyObsOptions(const ObsOptions& options);

/// Writes the trace, folded-profile, and metrics files named in `options`
/// (skipping empty ones), emits the fairem.proc.* rusage gauges, and, when
/// tracing ran, logs the flat span summary at INFO. Ordered so profiler
/// sample counters and rusage gauges land before the metrics snapshot.
Status FlushObsOutputs(const ObsOptions& options);

/// Registers an atexit hook that flushes `options`, so every bench binary
/// gets --trace_out/--metrics_out behaviour from flag parsing alone.
/// Idempotent; later calls overwrite the remembered options.
void FlushObsOutputsAtExit(const ObsOptions& options);

}  // namespace fairem

#endif  // FAIREM_OBS_OBS_H_
