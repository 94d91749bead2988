#ifndef FAIREM_UTIL_IO_UTIL_H_
#define FAIREM_UTIL_IO_UTIL_H_

#include <cstddef>
#include <string>

#include "src/util/result.h"

namespace fairem {

// EINTR/partial-IO-safe descriptor helpers, shared by the supervisor pipe
// protocol, the telemetry sidecar reads, and the serve daemon's socket wire
// (DESIGN.md §14). Raw ::read/::write call sites can short-read or
// short-write under signal pressure (SIGPROF from the profiler, SIGCHLD,
// terminal signals); every loop here restarts on EINTR and resumes partial
// transfers.
//
// Error mapping, so callers can tell "the peer went away" (retryable,
// normal under load) from "the descriptor is broken" (a bug or a dying
// disk):
//   * EOF before `n` bytes, EPIPE, ECONNRESET  -> kUnavailable
//   * a deadline expiring mid-transfer         -> kDeadlineExceeded
//   * anything else                            -> kIOError

/// Seconds on the monotonic clock since an arbitrary epoch: the one clock
/// behind every deadline, timeout, and latency in the daemons and retries.
double MonotonicSeconds();

/// Reads exactly `n` bytes into `buf`, looping over EINTR and partial
/// reads. Blocking fds only (an EAGAIN on a nonblocking fd is kIOError).
Status ReadFull(int fd, void* buf, size_t n);

/// Writes all of `data`, looping over EINTR and partial writes.
Status WriteFull(int fd, const void* data, size_t n);
Status WriteFull(int fd, const std::string& data);

/// One read of up to `n` bytes, polling first so a stalled peer costs at
/// most the time left before `deadline_s` (a MonotonicSeconds() instant; 0
/// means no deadline), not forever: the byte count (> 0), kUnavailable at
/// EOF, kDeadlineExceeded once the deadline passes. The fd may be blocking
/// or nonblocking.
Result<size_t> ReadSomeBefore(int fd, void* buf, size_t n, double deadline_s);

/// WriteFull with a wall-clock budget of `timeout_s` (<= 0: none), polling
/// before every write (slow-reader protection).
Status WriteFullDeadline(int fd, const void* data, size_t n,
                         double timeout_s);

/// Waits until `fd` is ready for `events` (POLLIN / POLLOUT), looping over
/// EINTR against the deadline. kDeadlineExceeded on timeout; POLLERR/POLLHUP
/// with no readable data maps to kUnavailable.
Status PollFd(int fd, short events, double timeout_s);

/// Whole-file read through ReadFull (open + fstat-free loop to EOF), so
/// sidecar and checkpoint loads share the signal-safe path. NotFound when
/// the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Ignores SIGPIPE process-wide (idempotent). Daemon, client, and bench
/// entry points call this so a peer hanging up mid-write surfaces as an
/// EPIPE -> kUnavailable status instead of killing the process.
void IgnoreSigpipe();

}  // namespace fairem

#endif  // FAIREM_UTIL_IO_UTIL_H_
