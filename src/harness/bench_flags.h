#ifndef FAIREM_HARNESS_BENCH_FLAGS_H_
#define FAIREM_HARNESS_BENCH_FLAGS_H_

#include <cstdint>
#include <string>

#include "src/obs/obs.h"

namespace fairem {

/// Common command-line flags of the table/figure bench binaries:
///   --scale S           multiply every generator's entity counts (default 1)
///   --seed N            shift every generator seed (default 0) — rerun a
///                       bench with several seeds for a replication study
///   --log_level L       debug|info|warn|error|off
///   --trace_out F       enable span tracing; write Chrome trace JSON to F
///   --metrics_out F     write a metrics-registry snapshot to F on exit
///   --metrics_format F  json (default) or prom for --metrics_out
///   --profile_out F     enable the sampling profiler; write folded stacks
///                       (flamegraph.pl / speedscope input) to F on exit
///   --profile_hz N      profiler sample rate (default 97)
///   --profile_mode M    cpu (default) or wall for --profile_out
///   --progress          live grid progress line on stderr (plus the
///                       fairem.progress.* gauges, which update regardless)
///   --failpoints SPEC   arm deterministic fault injection, e.g.
///                       "matcher_fit=error(0.05);grid_cell=crash(1,5)"
///                       (also: FAIREM_FAILPOINTS env)
///   --checkpoint_dir D  persist each grid cell to D and resume from it;
///                       fitted matchers' test scores are cached in
///                       D/scores, so the other audit mode skips the refit
///   --retry_attempts N  per-cell attempts for transient failures (default 3)
///   --jobs N            parallel worker processes for grid sweeps; > 1 (or
///                       either knob below) switches to the supervised
///                       process-isolated executor (default 1, sequential)
///   --intra_jobs N      threads inside each process for the hot matcher
///                       loops (feature table rows, forest trees, batch
///                       predict). Composes with --jobs: total concurrency
///                       is jobs x intra_jobs, so size them together
///                       against the core count (default 1, sequential).
///                       Output is byte-identical for any N.
///   --cell_timeout_s S  wall-clock watchdog per grid cell; a hung worker is
///                       SIGKILLed and respawned (default 0 = off)
///   --cell_max_rss_mb M address-space cap per grid-cell worker in MiB
///                       (default 0 = off)
/// Unknown flags abort with a usage message.
struct BenchFlags {
  double scale = 1.0;
  uint64_t seed_offset = 0;
  ObsOptions obs;
  std::string failpoints;
  std::string checkpoint_dir;
  int retry_attempts = 3;
  int jobs = 1;
  int intra_jobs = 1;
  double cell_timeout_s = 0.0;
  int cell_max_rss_mb = 0;
  bool progress = false;
  /// argv[0] basename, e.g. "bench_table5_nofly"; names BENCH_<name>.json.
  std::string bench_name = "bench";
};

/// Parses argv; exits(1) with a usage message on malformed flags. Also
/// applies the observability options (log level, tracing) and registers an
/// atexit flush, so --trace_out/--metrics_out work in every bench binary
/// without per-binary wiring.
BenchFlags ParseBenchFlags(int argc, char** argv);

}  // namespace fairem

#endif  // FAIREM_HARNESS_BENCH_FLAGS_H_
