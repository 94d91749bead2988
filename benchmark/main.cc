// fairem_benchmark: runs one workload of the FairEM benchmark and prints
// every metric as `name value unit`, then one JSON result line.
//
//   fairem_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace_out FILE] [--runs K] [--metrics_out FILE]
//                    [--bounds BENCHMARK.json] [--smoke] [--write_golden]
//                    [--golden_dir DIR] [--work_dir DIR]
//
// Each run executes in a freshly forked child, so CPU time and peak RSS are
// the workload's own; the parent reads the child's peak RSS (largest process
// of its tree) from wait4. See README.md for the workloads and metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_stats.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/text/simd.h"
#include "src/util/io_util.h"
#include "src/util/json.h"
#include "workloads.h"

namespace fairem::bench {
namespace {

namespace fs = std::filesystem;

// A run that takes longer than this is invalid (the harness kills runs at
// 180 s; this leaves room to report).
constexpr double kRunBudgetS = 170.0;

struct Args {
  RunConfig config;
  int runs = 1;
  std::string metrics_out;
  std::string bounds = "BENCHMARK.json";
  std::string work_dir = "build-bench/work";
};

int Usage(const std::string& why) {
  std::cerr << "fairem_benchmark: " << why << "\n"
            << "usage: fairem_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace_out FILE] [--runs K] "
               "[--metrics_out FILE] [--bounds FILE] [--smoke] "
               "[--write_golden] [--golden_dir DIR] [--work_dir DIR]\n"
            << "workloads:";
  for (const std::string& w : WorkloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\n') c = ' ';
  }
  return text;
}

// ------------------------------------------------------ child protocol --

std::string Serialize(const RunOutcome& o) {
  std::ostringstream os;
  for (const auto& [name, v] : o.metrics) {
    os << "M " << name << " " << FormatValue(v) << "\n";
  }
  os << "A " << o.attempted << "\nF " << o.failed << "\n";
  for (const std::string& p : o.problems) os << "P " << OneLine(p) << "\n";
  for (const std::string& n : o.notes) os << "N " << OneLine(n) << "\n";
  return os.str();
}

RunOutcome Deserialize(const std::string& blob) {
  RunOutcome o;
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const std::string rest = line.substr(2);
    switch (line[0]) {
      case 'M': {
        const size_t sp = rest.find(' ');
        double v = 0.0;
        if (sp != std::string::npos && ParseNumber(rest.substr(sp + 1), &v)) {
          o.metrics[rest.substr(0, sp)] = v;
        }
        break;
      }
      case 'A': o.attempted = std::stoull(rest); break;
      case 'F': o.failed = std::stoull(rest); break;
      case 'P': o.problems.push_back(rest); break;
      case 'N': o.notes.push_back(rest); break;
      default: break;
    }
  }
  return o;
}

/// Runs the workload in a forked child whose working directory is `dir`.
RunOutcome RunInChild(const RunConfig& config, const std::string& dir) {
  RunOutcome failed_outcome;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  int fds[2];
  if (ec || ::pipe(fds) != 0) {
    failed_outcome.problems.push_back("cannot prepare " + dir);
    return failed_outcome;
  }
  std::cout.flush();
  std::cerr.flush();
  const double t0 = NowS();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    RunOutcome o;
    if (::chdir(dir.c_str()) != 0) {
      o.problems.push_back("chdir failed");
    } else {
      o = RunWorkload(config);
    }
    (void)WriteFull(fds[1], Serialize(o));
    ::_exit(0);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    failed_outcome.problems.push_back("fork failed");
    return failed_outcome;
  }
  std::string blob;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      blob.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const double elapsed = NowS() - t0;
  RunOutcome o = Deserialize(blob);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    o.problems.push_back("workload process died (status " +
                         std::to_string(status) + ")");
  }
  if (elapsed > kRunBudgetS) {
    o.problems.push_back("run overran its " + FormatValue(kRunBudgetS) +
                         " s budget: " + FormatValue(elapsed) + " s");
  }
  // ru_maxrss of a reaped child covers its reaped descendants too: the
  // largest process of the workload's tree (daemons and workers included).
  if (!config.trace) {
    o.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  fs::remove_all(dir, ec);
  return o;
}

// ---------------------------------------------------------------- output --

const std::vector<MetricInfo>& ReportedMetrics(bool trace) {
  return trace ? PerLayerMetrics() : EndToEndMetrics();
}

void PrintHost() {
  std::ifstream loadavg("/proc/loadavg");
  std::string l1, l5, l15;
  loadavg >> l1 >> l5 >> l15;
  std::cout << "host nproc " << std::thread::hardware_concurrency() << "\n"
            << "host simd " << SimdLevelName(ActiveSimdLevel()) << "\n"
            << "host loadavg " << l1 << " " << l5 << " " << l15 << "\n";
}

/// BENCHMARK.json's end-to-end bounds, keyed by metric name.
std::map<std::string, MetricBound> LoadBounds(const std::string& path) {
  std::map<std::string, MetricBound> bounds;
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return bounds;
  Result<JsonValue> doc = JsonParse(*text);
  if (!doc.ok()) return bounds;
  const JsonValue* list = JsonFind(*doc, "end_to_end");
  if (list == nullptr) return bounds;
  for (const JsonValue& item : list->items) {
    const JsonValue* name = JsonFind(item, "name");
    const JsonValue* better = JsonFind(item, "better");
    const JsonValue* bound = JsonFind(item, "bound");
    if (name == nullptr || better == nullptr || bound == nullptr) continue;
    MetricBound b;
    b.name = name->scalar;
    b.lower_is_better = better->scalar == "lower";
    ParseNumber(bound->scalar, &b.bound);
    bounds[b.name] = b;
  }
  return bounds;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<MetricInfo>& infos,
               const std::map<std::string, double>& values) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : infos) {
    auto it = values.find(m.name);
    if (it == values.end()) continue;
    std::cout << (first ? "" : ", ") << JsonQuote(m.name)
              << ": {\"value\": " << FormatValue(it->second)
              << ", \"unit\": " << JsonQuote(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int Main(const Args& args) {
  SetGlobalLogLevel(LogLevel::kWarn);
  IgnoreSigpipe();
  const std::vector<MetricInfo>& infos = ReportedMetrics(args.config.trace);
  std::vector<RunOutcome> outcomes;
  for (int k = 0; k < args.runs; ++k) {
    outcomes.push_back(RunInChild(
        args.config, args.work_dir + "/" + args.config.workload + "-" +
                         std::to_string(::getpid())));
    const RunOutcome& o = outcomes.back();
    for (const std::string& n : o.notes) std::cout << "note " << n << "\n";
    for (const std::string& p : o.problems) {
      std::cout << "problem " << p << "\n";
    }
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::vector<double>> series;
  for (const RunOutcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    if (!o.problems.empty() || o.failed > 0) correct = false;
    for (const MetricInfo& m : infos) {
      auto it = o.metrics.find(m.name);
      if (it == o.metrics.end()) {
        std::cout << "problem metric " << m.name << " was not measured\n";
        correct = false;
      } else {
        series[m.name].push_back(it->second);
      }
    }
  }
  if (attempted == 0) {
    attempted = 1;  // a run that attempted nothing failed at that one thing
    failed = std::max<uint64_t>(failed, 1);
    correct = false;
  }

  std::map<std::string, double> medians;
  const std::map<std::string, MetricBound> bounds = LoadBounds(args.bounds);
  MetricsRegistry registry;
  const std::string prefix = "bench." + args.config.workload + ".";
  for (const MetricInfo& m : infos) {
    auto it = series.find(m.name);
    if (it == series.end()) continue;
    const Quartiles q = ComputeQuartiles(it->second);
    medians[m.name] = q.median;
    if (args.runs == 1) {
      std::cout << m.name << " " << FormatValue(q.median) << " " << m.unit
                << "\n";
      continue;
    }
    std::cout << m.name << " median " << FormatValue(q.median) << " q1 "
              << FormatValue(q.q1) << " q3 " << FormatValue(q.q3)
              << " spread " << FormatValue(q.Spread()) << " " << m.unit;
    auto b = bounds.find(m.name);
    if (b != bounds.end()) {
      std::cout << " bound " << FormatValue(b->second.bound) << " rule '"
                << FailOnRule(b->second, prefix + m.name) << "'";
      if (!SpreadWithinBound(b->second, q)) std::cout << " SPREAD>BOUND";
    }
    std::cout << "\n";
    registry.GetGauge(prefix + m.name)->Set(q.median);
    registry.GetGauge(prefix + m.name + ".spread")->Set(q.Spread());
  }
  PrintHost();
  if (!args.metrics_out.empty()) {
    registry.GetGauge("bench.host.nproc")
        ->Set(static_cast<double>(std::thread::hardware_concurrency()));
    registry.GetGauge("bench.host.simd_level")
        ->Set(static_cast<double>(ActiveSimdLevel()));
    registry.GetGauge("bench.runs")->Set(args.runs);
    if (Status st = registry.WriteJsonFile(args.metrics_out); !st.ok()) {
      std::cout << "problem metrics_out: " << st << "\n";
      correct = false;
    }
  }
  PrintJson(correct, attempted, failed, infos, medians);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fairem::bench

int main(int argc, char** argv) {
  using fairem::bench::Usage;
  fairem::bench::Args args;
  bool have_workload = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    double d = 0.0;
    if (flag == "--smoke") {
      args.config.smoke = true;
    } else if (flag == "--write_golden") {
      args.config.write_golden = true;
    } else if (!value(&v)) {
      return Usage("unknown or incomplete flag " + flag);
    } else if (flag == "--workload") {
      args.config.workload = v;
      have_workload = true;
    } else if (flag == "--seed" && fairem::bench::ParseNumber(v, &d) &&
               d >= 0) {
      args.config.seed = static_cast<uint64_t>(d);
    } else if (flag == "--seconds" && fairem::bench::ParseNumber(v, &d) &&
               d > 0) {
      args.config.seconds = d;
    } else if (flag == "--trace" && (v == "0" || v == "1")) {
      args.config.trace = v == "1";
    } else if (flag == "--trace_out") {
      trace_out = v;
    } else if (flag == "--runs" && fairem::bench::ParseNumber(v, &d) &&
               d >= 1 && d <= 100) {
      args.runs = static_cast<int>(d);
    } else if (flag == "--metrics_out") {
      args.metrics_out = v;
    } else if (flag == "--bounds") {
      args.bounds = v;
    } else if (flag == "--golden_dir") {
      args.config.golden_dir = v;
    } else if (flag == "--work_dir") {
      args.work_dir = v;
    } else {
      return Usage("bad value for " + flag + ": " + v);
    }
  }
  const auto& names = fairem::bench::WorkloadNames();
  if (!have_workload ||
      std::find(names.begin(), names.end(), args.config.workload) ==
          names.end()) {
    return Usage("--workload must name a workload");
  }
  namespace fs = std::filesystem;
  // The child runs in its own scratch directory; pin every path first.
  if (args.config.golden_dir.empty()) {
    args.config.golden_dir = "benchmark/golden";
  }
  args.config.golden_dir = fs::absolute(args.config.golden_dir).string();
  if (args.config.trace) {
    if (trace_out.empty()) {
      trace_out = args.work_dir + "/../trace-" + args.config.workload +
                  ".json";
    }
    args.config.trace_out = fs::absolute(trace_out).lexically_normal();
  }
  args.work_dir = fs::absolute(args.work_dir).lexically_normal();
  return fairem::bench::Main(args);
}
