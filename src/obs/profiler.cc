#include "src/obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/report/table_printer.h"
#include "src/util/string_util.h"

// Under ASan the frame-pointer walk must not read poisoned stack redzones:
// a broken chain pointing into one would otherwise raise a false positive
// from inside the signal handler. Same detection pattern as thread_pool.cc.
#if defined(__SANITIZE_ADDRESS__)
#define FAIREM_PROFILER_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FAIREM_PROFILER_HAS_ASAN 1
#endif
#endif
#ifdef FAIREM_PROFILER_HAS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace fairem {

namespace profiler_internal {
std::atomic<bool> g_stage_tracking{false};
}  // namespace profiler_internal

namespace {

constexpr int kMaxFrames = 32;
constexpr int kMaxStageDepth = 16;
constexpr int kMaxStageLen = 64;
constexpr char kUntaggedStage[] = "(untagged)";

// ------------------------------------------------- per-thread sampler state --

/// Read by the signal handler on the same thread that writes it, so only
/// compiler reordering matters; atomic_signal_fence pairs in push/pop and
/// the handler keep the name bytes ordered against the depth counter.
struct ThreadProfState {
  char names[kMaxStageDepth][kMaxStageLen] = {};
  std::atomic<int> depth{0};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
};

thread_local constinit ThreadProfState t_prof;

// ------------------------------------------------------- shared sampler state --

/// One slot of the sample buffer. The handler fills the plain fields and
/// then release-stores `ready`; Collect acquire-loads `ready` before
/// reading, so a slot mid-write on another thread is simply skipped.
struct Sample {
  std::atomic<uint32_t> ready{0};
  uint16_t n_frames = 0;
  char stage[kMaxStageLen] = {0};
  uintptr_t frames[kMaxFrames] = {};
};

/// File-scope so the async-signal handler reaches them without touching any
/// object whose construction it might have interrupted. g_ring is published
/// (release) before g_armed flips true; the handler acquire-loads g_armed.
std::unique_ptr<Sample[]> g_ring_owner;
std::atomic<Sample*> g_ring{nullptr};
std::atomic<uint64_t> g_capacity{0};
std::atomic<uint64_t> g_head{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<bool> g_armed{false};

/// Everything here is async-signal-safe: atomics, raw loads/stores, and
/// pure computation. No allocation, no locks, no library calls; errno is
/// saved and restored around the body.
void ProfilerSignalHandler(int /*sig*/, siginfo_t* /*info*/, void* ucv) {
  int saved_errno = errno;
  if (g_armed.load(std::memory_order_acquire)) {
    Sample* ring = g_ring.load(std::memory_order_relaxed);
    uint64_t capacity = g_capacity.load(std::memory_order_relaxed);
    uint64_t idx = g_head.fetch_add(1, std::memory_order_relaxed);
    if (ring == nullptr || idx >= capacity) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      Sample& s = ring[idx];
      // Innermost open Span of the interrupted thread.
      ThreadProfState& st = t_prof;
      int depth = st.depth.load(std::memory_order_relaxed);
      std::atomic_signal_fence(std::memory_order_acquire);
      s.stage[0] = '\0';
      if (depth > 0) {
        int slot = std::min(depth, kMaxStageDepth) - 1;
        for (int i = 0; i < kMaxStageLen; ++i) {
          s.stage[i] = st.names[slot][i];
          if (s.stage[i] == '\0') break;
        }
        s.stage[kMaxStageLen - 1] = '\0';
      }
      // Registers of the interrupted context.
      uintptr_t pc = 0;
      uintptr_t fp = 0;
      uintptr_t sp = 0;
#if defined(__x86_64__)
      const ucontext_t* uc = static_cast<const ucontext_t*>(ucv);
      pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
      fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
      sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
      const ucontext_t* uc = static_cast<const ucontext_t*>(ucv);
      pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
      fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
      sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
      (void)ucv;
#endif
      int n = 0;
      if (pc != 0) s.frames[n++] = pc;
      // Frame-pointer walk, fully validated: the chain must stay inside the
      // registered stack bounds, stay 8-aligned, and move strictly toward
      // the stack base — any violation ends the walk, never faults it.
      uintptr_t hi = st.stack_hi;
      if (hi != 0 && fp != 0) {
        uintptr_t lo = std::max(sp, st.stack_lo);
        while (n < kMaxFrames) {
          if (fp < lo || fp + 2 * sizeof(uintptr_t) > hi ||
              (fp & (sizeof(uintptr_t) - 1)) != 0) {
            break;
          }
#ifdef FAIREM_PROFILER_HAS_ASAN
          if (__asan_region_is_poisoned(reinterpret_cast<void*>(fp),
                                        2 * sizeof(void*)) != nullptr) {
            break;
          }
#endif
          uintptr_t next = *reinterpret_cast<uintptr_t*>(fp);
          uintptr_t ret = *reinterpret_cast<uintptr_t*>(fp + sizeof(uintptr_t));
          if (ret < 0x1000) break;
          s.frames[n++] = ret;
          if (next <= fp) break;  // must move toward the stack base
          fp = next;
        }
      }
      s.n_frames = static_cast<uint16_t>(n);
      s.ready.store(1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

int TimerForClock(ProfileClock clock) {
  return clock == ProfileClock::kCpu ? ITIMER_PROF : ITIMER_REAL;
}

int SignalForClock(ProfileClock clock) {
  return clock == ProfileClock::kCpu ? SIGPROF : SIGALRM;
}

// ------------------------------------------------------------- symbolization --

std::string HexAddress(uintptr_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(addr));
  return buf;
}

std::string PathBasename(const char* path) {
  std::string s = path;
  size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

/// Folded format reserves ' ' (count separator) and ';' (frame separator).
std::string SanitizeFrameName(std::string name) {
  for (char& c : name) {
    if (c == ' ' || c == '\n' || c == '\t') c = '_';
    if (c == ';') c = ':';
  }
  return name;
}

/// Drops the argument list of a demangled signature; "ns::Fn(int, bool)"
/// reads better as "ns::Fn" in a flamegraph. operator() keeps its parens.
std::string ShortenSignature(std::string name) {
  size_t paren = name.find('(');
  if (paren != std::string::npos && paren >= 8 &&
      name.compare(paren - 8, 8, "operator") == 0) {
    paren = name.find('(', paren + 2);
  }
  if (paren != std::string::npos) name.resize(paren);
  return name;
}

/// `is_leaf` distinguishes the interrupted PC (points at the sampled
/// instruction) from return addresses (point after the call, so resolve
/// address-1 to land inside the caller's call site).
std::string SymbolizeAddress(uintptr_t addr, bool is_leaf) {
  uintptr_t lookup = is_leaf ? addr : addr - 1;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = -1;
      char* demangled =
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      std::string name =
          (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
      std::free(demangled);
      return SanitizeFrameName(ShortenSignature(std::move(name)));
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      // Module-relative offsets are stable across forked processes (same
      // mappings), so unsymbolized frames still merge across workers.
      uintptr_t offset =
          lookup - reinterpret_cast<uintptr_t>(info.dli_fbase);
      return SanitizeFrameName(PathBasename(info.dli_fname) + "+" +
                               HexAddress(offset));
    }
  }
  return HexAddress(addr);
}

// ----------------------------------------------------------- /proc snapshots --

bool ReadSmallFile(const char* path, char* buf, size_t cap) {
  int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  ssize_t n;
  do {
    n = ::read(fd, buf, cap - 1);
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  return true;
}

bool FindProcField(const char* text, const char* key, uint64_t* out) {
  const char* p = std::strstr(text, key);
  if (p == nullptr) return false;
  p += std::strlen(key);
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(p, &end, 10);
  if (errno != 0 || end == p) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

ProfSpanResources ReadProcResources() {
  ProfSpanResources res;
  char buf[512];
  if (!ReadSmallFile("/proc/self/statm", buf, sizeof(buf))) return res;
  // statm: size resident shared ... (pages)
  char* end = nullptr;
  (void)std::strtoull(buf, &end, 10);  // size: skip
  errno = 0;
  unsigned long long resident = std::strtoull(end, &end, 10);
  if (errno != 0) return res;
  static const long kPageKb = ::sysconf(_SC_PAGESIZE) / 1024;
  res.rss_kb = static_cast<int64_t>(resident) * kPageKb;
  res.ok = true;
  // /proc/self/io may be absent (kernel config); rss alone still counts.
  char io_buf[512];
  if (ReadSmallFile("/proc/self/io", io_buf, sizeof(io_buf))) {
    (void)FindProcField(io_buf, "rchar: ", &res.io_read_bytes);
    (void)FindProcField(io_buf, "wchar: ", &res.io_write_bytes);
  }
  return res;
}

std::vector<std::string> SplitFrames(const std::string& stack) {
  std::vector<std::string> frames;
  size_t start = 0;
  while (start <= stack.size()) {
    size_t semi = stack.find(';', start);
    if (semi == std::string::npos) {
      frames.push_back(stack.substr(start));
      break;
    }
    frames.push_back(stack.substr(start, semi - start));
    start = semi + 1;
  }
  return frames;
}

std::string StageOfStack(const std::string& stack) {
  for (const std::string& frame : SplitFrames(stack)) {
    if (frame.rfind("span:", 0) == 0) return frame.substr(5);
  }
  return kUntaggedStage;
}

std::string FormatPercent(double fraction) {
  return FormatDouble(fraction * 100.0, 1) + "%";
}

}  // namespace

// ------------------------------------------------------------- folded text --

uint64_t FoldedProfile::TotalSamples() const {
  uint64_t total = 0;
  for (const auto& [stack, count] : stacks) total += count;
  return total;
}

void FoldedProfile::Merge(const FoldedProfile& other) {
  for (const auto& [stack, count] : other.stacks) stacks[stack] += count;
}

std::string FoldedProfile::ToText() const {
  std::ostringstream os;
  for (const auto& [stack, count] : stacks) {
    os << stack << ' ' << count << '\n';
  }
  return os.str();
}

FoldedProfile FoldedProfileFromText(const std::string& text) {
  FoldedProfile profile;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    if (line.empty()) continue;
    size_t space = line.find_last_of(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      continue;  // no trailing count: a truncated or foreign line
    }
    const std::string count_text = line.substr(space + 1);
    // strtoull alone is too lenient here: it accepts a sign and negates, so
    // "-4" would wrap to 2^64-4 and poison every aggregate. Digits only.
    bool digits_only = true;
    for (char c : count_text) digits_only = digits_only && c >= '0' && c <= '9';
    if (!digits_only) continue;
    errno = 0;
    char* end = nullptr;
    unsigned long long count = std::strtoull(count_text.c_str(), &end, 10);
    if (errno != 0 || end == count_text.c_str() || *end != '\0' || count == 0) {
      continue;
    }
    profile.stacks[line.substr(0, space)] += static_cast<uint64_t>(count);
  }
  return profile;
}

std::map<std::string, uint64_t> ProcessSampleCounts(
    const FoldedProfile& profile) {
  std::map<std::string, uint64_t> counts;
  for (const auto& [stack, count] : profile.stacks) {
    size_t semi = stack.find(';');
    std::string root = semi == std::string::npos ? stack : stack.substr(0, semi);
    if (root.rfind("process:", 0) == 0) {
      counts[root.substr(8)] += count;
    } else {
      counts["(unknown)"] += count;
    }
  }
  return counts;
}

std::vector<ProfTopRow> AggregateByFrame(const FoldedProfile& profile) {
  std::map<std::string, ProfTopRow> rows;
  for (const auto& [stack, count] : profile.stacks) {
    std::vector<std::string> frames = SplitFrames(stack);
    frames.erase(std::remove_if(frames.begin(), frames.end(),
                                [](const std::string& f) {
                                  return f.rfind("process:", 0) == 0 ||
                                         f.rfind("span:", 0) == 0;
                                }),
                 frames.end());
    if (frames.empty()) continue;
    std::set<std::string> seen;
    for (const std::string& frame : frames) {
      if (seen.insert(frame).second) {
        ProfTopRow& row = rows[frame];
        row.frame = frame;
        row.total += count;
      }
    }
    rows[frames.back()].self += count;
  }
  std::vector<ProfTopRow> out;
  out.reserve(rows.size());
  for (auto& [frame, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const ProfTopRow& a, const ProfTopRow& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.frame < b.frame;
            });
  return out;
}

double StageBreakdown::AttributedFraction() const {
  if (total_samples == 0) return 0.0;
  return static_cast<double>(attributed_samples) /
         static_cast<double>(total_samples);
}

StageBreakdown AggregateByStage(const FoldedProfile& profile) {
  StageBreakdown breakdown;
  std::map<std::string, uint64_t> by_stage;
  for (const auto& [stack, count] : profile.stacks) {
    by_stage[StageOfStack(stack)] += count;
    breakdown.total_samples += count;
  }
  for (const auto& [stage, samples] : by_stage) {
    StageShare share;
    share.stage = stage;
    share.samples = samples;
    share.share = breakdown.total_samples == 0
                      ? 0.0
                      : static_cast<double>(samples) /
                            static_cast<double>(breakdown.total_samples);
    if (stage != kUntaggedStage) breakdown.attributed_samples += samples;
    breakdown.stages.push_back(std::move(share));
  }
  std::sort(breakdown.stages.begin(), breakdown.stages.end(),
            [](const StageShare& a, const StageShare& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.stage < b.stage;
            });
  return breakdown;
}

std::vector<std::string> CompareShares(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after, double tolerance,
    double min_share) {
  std::set<std::string> names;
  for (const auto& [name, share] : before) names.insert(name);
  for (const auto& [name, share] : after) names.insert(name);
  std::vector<std::string> drift;
  for (const std::string& name : names) {
    auto a = before.find(name);
    auto b = after.find(name);
    const double sa = a == before.end() ? 0.0 : a->second;
    const double sb = b == after.end() ? 0.0 : b->second;
    if (sa < min_share && sb < min_share) continue;
    const double diff = std::fabs(sa - sb);
    if (diff > tolerance) {
      drift.push_back(name + ": share " + FormatPercent(sa) + " -> " +
                      FormatPercent(sb) + " (diff " + FormatPercent(diff) +
                      " > tolerance " + FormatPercent(tolerance) + ")");
    }
  }
  return drift;
}

std::vector<std::string> CompareStageShares(const FoldedProfile& a,
                                            const FoldedProfile& b,
                                            double tolerance,
                                            double min_share) {
  auto shares = [](const FoldedProfile& profile) {
    std::map<std::string, double> out;
    for (const StageShare& s : AggregateByStage(profile).stages) {
      out[s.stage] = s.share;
    }
    return out;
  };
  return CompareShares(shares(a), shares(b), tolerance, min_share);
}

std::string RenderProfTopByStack(const FoldedProfile& profile, int top_n) {
  std::vector<ProfTopRow> rows = AggregateByFrame(profile);
  uint64_t total = profile.TotalSamples();
  TablePrinter table({"frame", "self", "total", "self%"});
  int shown = 0;
  for (const ProfTopRow& row : rows) {
    if (top_n > 0 && shown >= top_n) break;
    double self_share =
        total == 0 ? 0.0
                   : static_cast<double>(row.self) / static_cast<double>(total);
    table.AddRow({row.frame, std::to_string(row.self),
                  std::to_string(row.total), FormatPercent(self_share)});
    ++shown;
  }
  std::ostringstream os;
  os << table.ToString();
  os << total << " samples, " << profile.stacks.size() << " unique stacks";
  if (top_n > 0 && rows.size() > static_cast<size_t>(top_n)) {
    os << " (showing top " << top_n << " of " << rows.size() << " frames)";
  }
  os << "\n";
  return os.str();
}

std::string RenderProfTopByStage(const FoldedProfile& profile) {
  StageBreakdown breakdown = AggregateByStage(profile);
  TablePrinter table({"stage", "samples", "share"});
  for (const StageShare& share : breakdown.stages) {
    table.AddRow({share.stage, std::to_string(share.samples),
                  FormatPercent(share.share)});
  }
  std::ostringstream os;
  os << table.ToString();
  std::map<std::string, uint64_t> processes = ProcessSampleCounts(profile);
  if (!processes.empty()) {
    os << "processes:";
    for (const auto& [label, count] : processes) {
      os << ' ' << label << '=' << count;
    }
    os << "\n";
  }
  os << "attributed " << breakdown.attributed_samples << "/"
     << breakdown.total_samples << " samples ("
     << FormatPercent(breakdown.AttributedFraction())
     << ") to named spans\n";
  return os.str();
}

// ---------------------------------------------------------------- sampler --

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler;
  return *profiler;
}

void Profiler::RegisterCurrentThread() {
  ThreadProfState& st = t_prof;
  if (st.stack_hi != 0) return;
#if defined(__linux__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      st.stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      st.stack_hi = st.stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
}

Status Profiler::Arm() {
  itimerval tv;
  std::memset(&tv, 0, sizeof(tv));
  long usec = 1000000L / options_.hz;
  if (usec <= 0) usec = 1;
  tv.it_interval.tv_sec = usec / 1000000L;
  tv.it_interval.tv_usec = usec % 1000000L;
  tv.it_value = tv.it_interval;
  if (::setitimer(TimerForClock(options_.clock), &tv, nullptr) != 0) {
    return Status::IOError(std::string("setitimer failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (active_) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (options.hz < 1 || options.hz > 10000) {
    return Status::InvalidArgument("--profile_hz must be in [1, 10000], got " +
                                   std::to_string(options.hz));
  }
  if (options.capacity == 0) {
    return Status::InvalidArgument("profiler capacity must be positive");
  }
  options_ = options;
  exported_upto_ = 0;
  exported_dropped_ = 0;
  // (Re)allocate the buffer before anything is armed; the previous run's
  // samples (if any) are gone after this point.
  if (g_capacity.load(std::memory_order_relaxed) != options.capacity ||
      g_ring_owner == nullptr) {
    g_ring_owner = std::make_unique<Sample[]>(options.capacity);
    g_capacity.store(options.capacity, std::memory_order_relaxed);
  } else {
    for (size_t i = 0; i < options.capacity; ++i) {
      g_ring_owner[i].ready.store(0, std::memory_order_relaxed);
    }
  }
  g_head.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_ring.store(g_ring_owner.get(), std::memory_order_release);
  RegisterCurrentThread();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &ProfilerSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  if (::sigaction(SignalForClock(options_.clock), &sa, nullptr) != 0) {
    return Status::IOError(std::string("sigaction failed: ") +
                           std::strerror(errno));
  }
  profiler_internal::g_stage_tracking.store(true, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
  if (Status st = Arm(); !st.ok()) {
    g_armed.store(false, std::memory_order_relaxed);
    profiler_internal::g_stage_tracking.store(false,
                                              std::memory_order_relaxed);
    return st;
  }
  active_ = true;
  return Status::OK();
}

Status Profiler::Stop() {
  if (!active_) return Status::OK();
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  ::setitimer(TimerForClock(options_.clock), &off, nullptr);
  g_armed.store(false, std::memory_order_relaxed);
  profiler_internal::g_stage_tracking.store(false, std::memory_order_relaxed);
  active_ = false;
  return Status::OK();
}

Status Profiler::RestartAfterFork(const std::string& process_label) {
  // fork() clears interval timers in the child, so without this re-arm an
  // inherited "active" profiler would silently collect nothing.
  if (!active_) return Status::OK();
  options_.process_label = process_label;
  Sample* ring = g_ring.load(std::memory_order_relaxed);
  uint64_t capacity = g_capacity.load(std::memory_order_relaxed);
  // Single-threaded after fork: no handler can be in flight, so resetting
  // the buffer (discarding the parent's inherited samples) is plain stores.
  for (uint64_t i = 0; i < capacity && ring != nullptr; ++i) {
    ring[i].ready.store(0, std::memory_order_relaxed);
  }
  g_head.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  exported_upto_ = 0;
  exported_dropped_ = 0;
  RegisterCurrentThread();
  return Arm();
}

uint64_t Profiler::SampleCount() const {
  return std::min(g_head.load(std::memory_order_acquire),
                  g_capacity.load(std::memory_order_relaxed));
}

uint64_t Profiler::DroppedCount() const {
  return g_dropped.load(std::memory_order_relaxed);
}

FoldedProfile Profiler::Collect() {
  FoldedProfile profile;
  Sample* ring = g_ring.load(std::memory_order_relaxed);
  if (ring == nullptr) return profile;
  uint64_t end = SampleCount();
  std::map<uintptr_t, std::string> symbol_cache[2];  // [is_leaf]
  auto symbolize = [&](uintptr_t addr, bool is_leaf) -> const std::string& {
    auto& cache = symbol_cache[is_leaf ? 1 : 0];
    auto it = cache.find(addr);
    if (it == cache.end()) {
      it = cache.emplace(addr, SymbolizeAddress(addr, is_leaf)).first;
    }
    return it->second;
  };
  const std::string prefix =
      "process:" + SanitizeFrameName(options_.process_label) + ";span:";
  for (uint64_t i = 0; i < end; ++i) {
    Sample& s = ring[i];
    if (s.ready.load(std::memory_order_acquire) == 0) continue;
    std::string stack = prefix;
    stack += s.stage[0] == '\0'
                 ? kUntaggedStage
                 : SanitizeFrameName(std::string(
                       s.stage, ::strnlen(s.stage, kMaxStageLen)));
    if (s.n_frames == 0) {
      stack += ";(no_frames)";
    } else {
      for (int f = s.n_frames - 1; f >= 0; --f) {
        stack += ';';
        stack += symbolize(s.frames[f], f == 0);
      }
    }
    profile.stacks[stack] += 1;
  }
  return profile;
}

void Profiler::AbsorbFolded(const std::string& folded_text) {
  FoldedProfile incoming = FoldedProfileFromText(folded_text);
  std::lock_guard<std::mutex> lock(merge_mu_);
  absorbed_.Merge(incoming);
}

FoldedProfile Profiler::MergedProfile() {
  FoldedProfile merged = Collect();
  std::lock_guard<std::mutex> lock(merge_mu_);
  merged.Merge(absorbed_);
  return merged;
}

void Profiler::ExportMetrics() {
  Sample* ring = g_ring.load(std::memory_order_relaxed);
  uint64_t end = SampleCount();
  if (ring != nullptr && end > exported_upto_) {
    std::map<std::string, uint64_t> by_stage;
    uint64_t counted = 0;
    for (uint64_t i = exported_upto_; i < end; ++i) {
      Sample& s = ring[i];
      if (s.ready.load(std::memory_order_acquire) == 0) continue;
      std::string stage =
          s.stage[0] == '\0'
              ? kUntaggedStage
              : std::string(s.stage, ::strnlen(s.stage, kMaxStageLen));
      ++by_stage[stage];
      ++counted;
    }
    exported_upto_ = end;
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("fairem.profile.samples")->Increment(counted);
    for (const auto& [stage, samples] : by_stage) {
      reg.GetCounter("fairem.profile.stage." + stage + ".samples")
          ->Increment(samples);
    }
  }
  uint64_t dropped = DroppedCount();
  if (dropped > exported_dropped_) {
    MetricsRegistry::Global()
        .GetCounter("fairem.profile.dropped_samples")
        ->Increment(dropped - exported_dropped_);
    exported_dropped_ = dropped;
  }
}

void Profiler::ExportStageCpuGauges() {
  if (options_.hz < 1) return;
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  constexpr char kPrefix[] = "fairem.profile.stage.";
  constexpr char kSuffix[] = ".samples";
  for (const auto& [name, count] : snap.counters) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= sizeof(kSuffix) - 1 ||
        name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                     kSuffix) != 0) {
      continue;
    }
    std::string base = name.substr(0, name.size() - (sizeof(kSuffix) - 1));
    MetricsRegistry::Global()
        .GetGauge(base + ".cpu_seconds")
        ->Set(static_cast<double>(count) / static_cast<double>(options_.hz));
  }
}

// -------------------------------------------------------------- span hooks --

ProfSpanResources ProfilerSpanBegin(const char* name, size_t len) {
  ThreadProfState& st = t_prof;
  int depth = st.depth.load(std::memory_order_relaxed);
  if (depth >= 0 && depth < kMaxStageDepth) {
    size_t n = std::min(len, static_cast<size_t>(kMaxStageLen - 1));
    std::memcpy(st.names[depth], name, n);
    st.names[depth][n] = '\0';
  }
  // The name bytes must be visible before the handler can see the new
  // depth; same-thread signal delivery makes this a compiler fence only.
  std::atomic_signal_fence(std::memory_order_release);
  st.depth.store(depth + 1, std::memory_order_relaxed);
  return ReadProcResources();
}

void ProfilerSpanEnd(const ProfSpanResources& start) {
  ThreadProfState& st = t_prof;
  int depth = st.depth.load(std::memory_order_relaxed);
  if (depth <= 0) return;  // unbalanced pop: drop rather than corrupt
  // Attribute resource deltas to the span being closed (stack top). A span
  // deeper than the name buffer has no recorded name — skip its metrics.
  if (depth <= kMaxStageDepth && start.ok &&
      ProfilerStageTrackingEnabled()) {
    ProfSpanResources now = ReadProcResources();
    if (now.ok) {
      std::string base = "fairem.profile.span.";
      base.append(st.names[depth - 1],
                  ::strnlen(st.names[depth - 1], kMaxStageLen));
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.GetGauge(base + ".rss_delta_kb")
          ->Set(static_cast<double>(now.rss_kb - start.rss_kb));
      if (now.io_read_bytes > start.io_read_bytes) {
        reg.GetCounter(base + ".io_read_bytes")
            ->Increment(now.io_read_bytes - start.io_read_bytes);
      }
      if (now.io_write_bytes > start.io_write_bytes) {
        reg.GetCounter(base + ".io_write_bytes")
            ->Increment(now.io_write_bytes - start.io_write_bytes);
      }
    }
  }
  std::atomic_signal_fence(std::memory_order_release);
  st.depth.store(depth - 1, std::memory_order_relaxed);
}

void EmitProcessResourceGauges() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetGauge("fairem.proc.peak_rss_mb")
      ->Set(static_cast<double>(usage.ru_maxrss) / 1024.0);
  reg.GetGauge("fairem.proc.user_cpu_s")
      ->Set(static_cast<double>(usage.ru_utime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec) / 1e6);
  reg.GetGauge("fairem.proc.sys_cpu_s")
      ->Set(static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) / 1e6);
  reg.GetGauge("fairem.proc.vol_ctx_switches")
      ->Set(static_cast<double>(usage.ru_nvcsw));
  reg.GetGauge("fairem.proc.invol_ctx_switches")
      ->Set(static_cast<double>(usage.ru_nivcsw));
}

}  // namespace fairem
