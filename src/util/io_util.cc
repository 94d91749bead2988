#include "src/util/io_util.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <chrono>

namespace fairem {
namespace {

Status ErrnoStatus(const char* op, int err) {
  std::string msg = std::string(op) + " failed: " + ::strerror(err);
  if (err == EPIPE || err == ECONNRESET) {
    return Status(StatusCode::kUnavailable, "peer disconnected: " + msg);
  }
  return Status::IOError(std::move(msg));
}

}  // namespace

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      return Status(StatusCode::kUnavailable,
                    "eof after " + std::to_string(got) + " of " +
                        std::to_string(n) + " bytes");
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("read", errno);
  }
  return Status::OK();
}

Status WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < n) {
    ssize_t w = ::write(fd, p + written, n - written);
    if (w >= 0) {
      written += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("write", errno);
  }
  return Status::OK();
}

Status WriteFull(int fd, const std::string& data) {
  return WriteFull(fd, data.data(), data.size());
}

Status PollFd(int fd, short events, double timeout_s) {
  const double start = MonotonicSeconds();
  for (;;) {
    int remaining_ms = -1;
    if (timeout_s > 0.0) {
      double left = timeout_s - (MonotonicSeconds() - start);
      if (left <= 0.0) {
        return Status(StatusCode::kDeadlineExceeded,
                      "poll deadline of " + std::to_string(timeout_s) +
                          "s expired");
      }
      remaining_ms = static_cast<int>(left * 1000.0) + 1;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, remaining_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll", errno);
    }
    if (rc == 0) continue;  // re-check the deadline at the top
    // POLLIN alongside POLLHUP means buffered bytes remain readable; only a
    // bare hangup/error is a dead peer.
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & events) == 0) {
      return Status(StatusCode::kUnavailable, "peer hung up");
    }
    return Status::OK();
  }
}

Result<size_t> ReadSomeBefore(int fd, void* buf, size_t n, double deadline_s) {
  for (;;) {
    const double left = deadline_s - MonotonicSeconds();
    if (deadline_s > 0.0 && left <= 0.0) {
      return Status(StatusCode::kDeadlineExceeded, "read deadline expired");
    }
    FAIREM_RETURN_NOT_OK(PollFd(fd, POLLIN, deadline_s > 0.0 ? left : 0.0));
    ssize_t r = ::read(fd, buf, n);
    if (r > 0) return static_cast<size_t>(r);
    if (r == 0) return Status(StatusCode::kUnavailable, "eof");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return ErrnoStatus("read", errno);
  }
}

Status WriteFullDeadline(int fd, const void* data, size_t n,
                         double timeout_s) {
  const double start = MonotonicSeconds();
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < n) {
    double left =
        timeout_s > 0.0 ? timeout_s - (MonotonicSeconds() - start) : 0.0;
    if (timeout_s > 0.0 && left <= 0.0) {
      return Status(StatusCode::kDeadlineExceeded,
                    "write deadline expired after " + std::to_string(written) +
                        " of " + std::to_string(n) + " bytes");
    }
    FAIREM_RETURN_NOT_OK(PollFd(fd, POLLOUT, left));
    ssize_t w = ::write(fd, p + written, n - written);
    if (w >= 0) {
      written += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return ErrnoStatus("write", errno);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IOError("cannot open '" + path +
                           "': " + ::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      out.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    int err = errno;
    ::close(fd);
    return Status::IOError("read of '" + path +
                           "' failed: " + ::strerror(err));
  }
  ::close(fd);
  return out;
}

void IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace fairem
