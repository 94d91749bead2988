#include "src/harness/bench_flags.h"

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/datagen/benchmark_suite.h"
#include "src/robust/failpoint.h"
#include "src/util/thread_pool.h"

namespace fairem {

BenchFlags ParseBenchFlags(int argc, char** argv, FlagSet extra) {
  BenchFlags flags;
  if (argc > 0) {
    const std::string path = argv[0];
    flags.bench_name = path.substr(path.find_last_of('/') + 1);
  }
  RegisterDatagenFlags(&extra, &flags.scale, &flags.seed_offset);
  RegisterIntraJobsFlag(&extra, &flags.intra_jobs);
  RegisterObsFlags(&extra, &flags.obs, &flags.failpoints);
  extra.ParseOrExit(argc, argv);
  SetIntraJobs(flags.intra_jobs);
  Status st = ApplyObsOptions(flags.obs);
  if (st.ok() && !flags.failpoints.value_or("").empty()) {
    st = FailpointRegistry::Global().Configure(*flags.failpoints,
                                               1234 ^ flags.seed_offset);
  }
  if (!st.ok()) {
    std::cerr << st << "\n";
    std::exit(1);
  }
  if (!flags.obs.trace_out.empty() || !flags.obs.metrics_out.empty() ||
      !flags.obs.profile_out.empty()) {
    FlushObsOutputsAtExit(flags.obs);
  }
  return flags;
}

}  // namespace fairem
