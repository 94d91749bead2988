#ifndef FAIREM_HARNESS_BENCH_FLAGS_H_
#define FAIREM_HARNESS_BENCH_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/obs/obs.h"
#include "src/util/flags.h"

namespace fairem {

/// The flags every table/figure bench reads: --scale and --seed
/// (RegisterDatagenFlags; rerun with several seeds for a replication
/// study), --intra_jobs, and the observability and --failpoints flags
/// (RegisterObsFlags). The usage message of any bench lists them.
struct BenchFlags {
  double scale = 1.0;
  uint64_t seed_offset = 0;
  int intra_jobs = 1;
  ObsOptions obs;
  std::optional<std::string> failpoints;
  /// argv[0] basename, e.g. "bench_table5_nofly"; names BENCH_<name>.json.
  std::string bench_name = "bench";
};

/// Parses argv against the shared bench flags plus whatever the bench
/// registered in `extra`; on a malformed or unknown flag exits 1 with the
/// generated usage. Then applies --intra_jobs and the observability
/// options, arms --failpoints (seeded 1234 ^ seed), and registers an atexit
/// flush, so --trace_out/--metrics_out work in every bench binary without
/// per-binary wiring.
BenchFlags ParseBenchFlags(int argc, char** argv, FlagSet extra = {});

}  // namespace fairem

#endif  // FAIREM_HARNESS_BENCH_FLAGS_H_
