#ifndef FAIREM_ROBUST_CHECKPOINT_H_
#define FAIREM_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace fairem {

/// Atomic per-key JSON checkpoints in a directory: each key maps to
/// `<dir>/<sanitized-key>.json`, written via temp-file + rename so a crash
/// mid-write never leaves a torn checkpoint behind. An empty `dir` disables
/// the store (every Load is NotFound, every Save a no-op) so callers can
/// thread one object through unconditionally.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// The payload saved under `key`, or NotFound.
  Result<std::string> Load(const std::string& key) const;

  /// Atomically and durably persists `payload` under `key`, creating the
  /// directory (and any missing parents) on first use. The temp file is
  /// fsynced before the rename and the directory after it, so a published
  /// checkpoint survives power loss, not just a crash. Overwrites any
  /// previous checkpoint for the key.
  Status Save(const std::string& key, const std::string& payload) const;

  /// Path of `key`'s checkpoint file (whether or not it exists).
  std::string PathFor(const std::string& key) const;

 private:
  std::string dir_;
};

/// The persisted outcome of one (matcher, dataset, single/pairwise) grid
/// cell — everything UnfairnessGridReport needs to replay the cell into an
/// UnfairnessGrid without re-running the matcher.
struct GridCellCheckpoint {
  std::string matcher;  // display name, e.g. "DTMatcher"
  std::string marker;   // plot marker, e.g. "DT"
  bool supported = true;
  bool error = false;
  std::string status;  // Status::ToString() when error
  /// Audit entries in report order (column order of the rendered grid is
  /// first-seen, so order must survive the round trip byte-exactly).
  struct Mark {
    std::string group;
    std::string measure;  // FairnessMeasureName
    bool unfair = false;
  };
  std::vector<Mark> marks;
};

/// Serializes a cell checkpoint as a single JSON object.
std::string GridCellToJson(const GridCellCheckpoint& cell);

/// Parses GridCellToJson output. Tolerates only that exact shape; anything
/// else is InvalidArgument (callers treat a corrupt checkpoint as a miss).
Result<GridCellCheckpoint> GridCellFromJson(const std::string& json);

/// One matcher's test scores on one dataset, as the score cache persists
/// them under `<checkpoint_dir>/scores/<dataset>.<matcher>.json`
/// (DESIGN.md §18). The entry is valid only for the matcher seed and the
/// DatasetFingerprint it was computed under.
struct ScoreCacheEntry {
  std::string dataset;
  std::string matcher;  // display name, e.g. "DTMatcher"
  uint64_t seed = 0;
  uint64_t fingerprint = 0;
  std::vector<double> scores;  // one per test pair, in test order
};

/// Serializes an entry as a single JSON object. Each score is written in
/// the shortest form that parses back to the same double (std::to_chars),
/// so every finite value round-trips bit for bit, -0.0 and subnormals
/// included.
std::string ScoreEntryToJson(const ScoreCacheEntry& entry);

/// Parses ScoreEntryToJson output. Truncated or malformed JSON, a missing
/// field, and a non-finite score are InvalidArgument (callers treat them as
/// a cache miss).
Result<ScoreCacheEntry> ScoreEntryFromJson(const std::string& json);

}  // namespace fairem

#endif  // FAIREM_ROBUST_CHECKPOINT_H_
