#ifndef FAIREM_BENCHMARK_WORKLOADS_H_
#define FAIREM_BENCHMARK_WORKLOADS_H_

// The four workloads. RunWorkload runs one in the current process (the
// benchmark forks a fresh child per run) with the current directory as its
// scratch space, and returns its metrics and every correctness problem.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fairem::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a single pass: exercises every path in seconds, with
  /// no golden comparison (goldens are for the benchmark's own sizes).
  bool smoke = false;
  std::string golden_dir;     // absolute; goldens are checked at seed 0
  bool write_golden = false;  // regenerate the goldens instead
  std::string trace_out;      // absolute; Chrome trace of the traced run
};

struct RunOutcome {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // any entry fails the run
  std::vector<std::string> notes;     // printed, never fail the run
};

struct MetricInfo {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& WorkloadNames();

/// Metrics an untraced run reports (peak_rss_mb is added by the parent).
const std::vector<MetricInfo>& EndToEndMetrics();
/// Metrics a traced run reports.
const std::vector<MetricInfo>& PerLayerMetrics();

RunOutcome RunWorkload(const RunConfig& config);

}  // namespace fairem::bench

#endif  // FAIREM_BENCHMARK_WORKLOADS_H_
