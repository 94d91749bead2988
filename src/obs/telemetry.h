#ifndef FAIREM_OBS_TELEMETRY_H_
#define FAIREM_OBS_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace fairem {

// ---------------------------------------------------------------------------
// Cross-process telemetry: how a supervised worker ships its metrics delta
// and completed trace spans back to the parent. See DESIGN.md §11 for the
// wire format.

/// current − baseline, metric-wise. A forked worker inherits the parent's
/// registry values, so the parent must receive only what the worker itself
/// added: counters subtract (unchanged inherited ones are omitted), gauges
/// are included only when they changed (a stale fork-time copy must not
/// clobber the parent's fresher value), histograms subtract bucket-wise. A
/// histogram whose bounds changed between the snapshots is shipped whole.
/// Metrics first registered during the task ship even at zero, so a merged
/// parent snapshot lists the same metric names a sequential run would.
MetricsSnapshot DiffSnapshots(const MetricsSnapshot& baseline,
                              const MetricsSnapshot& current);

/// Inverse of MetricsSnapshotToJson. Derived histogram keys ("mean",
/// "p50", …) are ignored on load and recomputed from the raw buckets.
Result<MetricsSnapshot> MetricsSnapshotFromJson(const std::string& json);

/// Everything one worker attempt ships: which task it ran, which attempt
/// this was (the double-delivery dedup key is (task_key, attempt)), the
/// worker pid (becomes the trace track id), the metrics delta, and the
/// spans completed during the task.
struct WorkerTelemetry {
  int version = 1;
  std::string task_key;
  int attempt = 0;
  int64_t pid = 0;
  MetricsSnapshot metrics;
  std::vector<TraceEvent> spans;
};

std::string SerializeWorkerTelemetry(const WorkerTelemetry& telemetry);
Result<WorkerTelemetry> ParseWorkerTelemetry(const std::string& json);

// ---------------------------------------------------------------------------
// The FEMTEL1 typed-frame wire (DESIGN.md §11/§13). After the magic the wire
// is a sequence of frames:
//
//   "FEMTEL1\n" { <4-char type> <16 hex digits: byte length> "\n" <bytes> }*
//
// One frame-header codec (AppendFrame / ParseFrameHeader) serves two
// decoders with opposite failure policies: the lenient pipe decoder below
// (ParseTelemetryWire — a worker killed mid-write degrades, never errors)
// and the strict socket decoder (FrameDecoder in src/serve/protocol.h — a
// corrupt stream closes the connection). Both skip a frame whose type they
// do not know — its length field still delimits it — and count it in
// UnknownFramesCounter(), so an older reader facing a newer writer degrades
// instead of treating the wire as corrupt.
//
// Pipe frame types: "TELE" (WorkerTelemetry JSON), "PROF" (folded profile
// text), and "PAYL" (the task payload, always the final frame). A pipe wire
// that does not start with the magic, or whose first frame header is
// malformed, is an unframed payload from a worker that crashed before (or
// never started) shipping telemetry. A wire truncated mid-frame keeps the
// frames already parsed (payload empty).

inline constexpr char kTelemetryMagic[] = "FEMTEL1\n";
inline constexpr size_t kTelemetryMagicLen = sizeof(kTelemetryMagic) - 1;
/// 4 type bytes, 16 lowercase hex length digits, '\n'.
inline constexpr size_t kFrameHeaderLen = 4 + 16 + 1;
inline constexpr char kFrameTelemetry[] = "TELE";
inline constexpr char kFrameProfile[] = "PROF";
inline constexpr char kFramePayload[] = "PAYL";

/// Appends one frame: header, then `bytes`. A type shorter than 4 bytes is
/// padded with '_'; only the first 4 bytes of a longer one are used.
void AppendFrame(std::string* wire, const std::string& type,
                 const std::string& bytes);

/// Parses the kFrameHeaderLen bytes at `header`. InvalidArgument when the
/// type is not 4 printable non-space bytes, a length digit is not lowercase
/// hex, or the terminating '\n' is missing.
Status ParseFrameHeader(const char* header, std::string* type,
                        uint64_t* length);

/// fairem.telemetry.unknown_frames: frames either decoder stepped over.
Counter* UnknownFramesCounter();

struct TelemetryFrame {
  std::string type;  // exactly 4 bytes on the wire
  std::string bytes;
};

struct TelemetryWireParse {
  bool framed = false;     // magic present and >= 1 complete frame parsed
  bool truncated = false;  // wire ended mid-frame after the magic
  /// Non-payload frames in wire order, unknown types included (callers
  /// dispatch on `type` and ignore what they do not understand).
  std::vector<TelemetryFrame> frames;
  /// The PAYL frame's bytes; the whole wire when it is not framed.
  std::string payload;
};

/// Frames + final PAYL frame, encoded. `frames` must not contain a PAYL
/// frame of its own; the payload always travels last.
std::string EncodeTelemetryWire(const std::vector<TelemetryFrame>& frames,
                                const std::string& payload);

/// Never fails. With no magic (or a malformed first frame header) the whole
/// wire is the payload — the pre-framing degradation path. Unknown frame
/// types are skipped with a counter bump, not an error.
TelemetryWireParse ParseTelemetryWire(const std::string& wire);

// ---------------------------------------------------------------------------
// Sidecar files: the crash path. Workers durably write
// `<dir>/<sanitized task_key>.attempt<N>.telemetry.json` before shipping on
// the pipe; the parent sweeps the file up only when the pipe copy was
// missing (crash/timeout), then deletes it.

std::string TelemetrySidecarPath(const std::string& dir,
                                 const std::string& task_key, int attempt);
Status WriteTelemetrySidecar(const std::string& dir,
                             const WorkerTelemetry& telemetry);
Result<WorkerTelemetry> LoadTelemetrySidecarFile(const std::string& path);

/// Profile sidecars mirror the telemetry ones for the PROF frame:
/// `<dir>/<sanitized task_key>.attempt<N>.profile.folded`, written durably
/// by a profiling worker before it ships on the pipe, swept by the parent
/// when the pipe copy never landed (crash/timeout), then deleted.
std::string ProfileSidecarPath(const std::string& dir,
                               const std::string& task_key, int attempt);
Status WriteProfileSidecar(const std::string& dir, const std::string& task_key,
                           int attempt, const std::string& folded_text);
Result<std::string> LoadProfileSidecarFile(const std::string& path);

/// Folds one worker attempt into this process: metrics delta merges into
/// MetricsRegistry::Global() and each span is re-emitted on
/// Tracer::Global() with track_id set to the worker pid. Absorbing the
/// same telemetry twice double counts; WorkerProcess::TakeResult is the
/// caller that keeps it to once per (task_key, attempt).
void AbsorbWorkerTelemetry(const WorkerTelemetry& telemetry);

// ---------------------------------------------------------------------------
// Live grid progress.

struct ProgressSnapshot {
  size_t total = 0;
  size_t done = 0;
  size_t running = 0;
  size_t retrying = 0;
  size_t failed = 0;
  /// Duration of a cell that finished since the previous Update, or < 0
  /// when none did (the value feeds the ETA histogram exactly once).
  double last_cell_seconds = -1.0;
};

/// Emits a rate-limited progress line on stderr and keeps the
/// fairem.progress.* gauges current. ETA is derived from the
/// fairem.progress.cell_seconds histogram: mean cell duration × remaining
/// cells ÷ parallel jobs; unknown (-1) until the first cell completes.
class ProgressReporter {
 public:
  /// `jobs` scales the ETA for parallel execution; `min_interval_seconds`
  /// is the stderr rate limit. With emit_stderr false only the gauges (and
  /// the ETA histogram) update — how the harness keeps fairem.progress.*
  /// live even when the progress line is off.
  explicit ProgressReporter(size_t total_cells, int jobs = 1,
                            double min_interval_seconds = 0.5,
                            bool emit_stderr = true);

  /// `force` bypasses the rate limit (used for the final line).
  void Update(const ProgressSnapshot& snap, bool force = false);

  double EtaSeconds(const ProgressSnapshot& snap) const;

  /// Pure formatter, e.g. "grid 12/40 done, 4 running, 1 retrying,
  /// 0 failed, eta 38.2s" ("eta ?" when negative).
  static std::string FormatLine(const ProgressSnapshot& snap,
                                double eta_seconds);

 private:
  int jobs_;
  double min_interval_seconds_;
  bool emit_stderr_;
  Histogram* cell_seconds_;
  bool emitted_any_ = false;
  std::chrono::steady_clock::time_point last_emit_;
};

}  // namespace fairem

#endif  // FAIREM_OBS_TELEMETRY_H_
