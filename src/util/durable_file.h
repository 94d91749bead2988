#ifndef FAIREM_UTIL_DURABLE_FILE_H_
#define FAIREM_UTIL_DURABLE_FILE_H_

#include <string>

#include "src/util/result.h"

namespace fairem {

/// Atomically and durably replaces the file at `path` with `contents`:
/// writes a temp file private to this call (`<path>.tmp.<pid>.<n>`),
/// fsyncs it, renames it over `path`, and fsyncs the containing directory
/// so the rename itself survives power loss. Missing parent directories are
/// created. A crash — even SIGKILL — at any point leaves either the old file
/// or the new one, never a truncated mix; concurrent writers of one path
/// each publish a whole file, and the last rename wins.
///
/// This is the write path shared by checkpoint publication
/// (src/robust/checkpoint.cc) and metrics snapshots
/// (MetricsRegistry::WriteJsonFile): anything a later run might read back
/// must never be observable half-written.
Status WriteFileDurable(const std::string& path, const std::string& contents);

}  // namespace fairem

#endif  // FAIREM_UTIL_DURABLE_FILE_H_
