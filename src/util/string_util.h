#ifndef FAIREM_UTIL_STRING_UTIL_H_
#define FAIREM_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fairem {

/// Converts ASCII letters to lower case (non-ASCII bytes pass through).
std::string ToLowerAscii(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replaces every byte outside [A-Za-z0-9._-] with '_', so a key (a grid
/// cell key, a task key, a socket path) is safe as a filename component and
/// inside a metric name.
std::string SanitizeForFilename(std::string_view key);

/// True if `s` is well-formed UTF-8 (rejects overlong encodings, surrogate
/// code points, and values beyond U+10FFFF). ASCII is always valid.
bool IsValidUtf8(std::string_view s);

/// True if `s` parses entirely as a finite double; on success stores it in
/// `*out` (which may be null to just test).
bool ParseDouble(std::string_view s, double* out);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

}  // namespace fairem

#endif  // FAIREM_UTIL_STRING_UTIL_H_
