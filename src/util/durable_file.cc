#include "src/util/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace fairem {

Status WriteFileDurable(const std::string& path, const std::string& contents) {
  std::filesystem::path target(path);
  std::filesystem::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir.string() +
                           "': " + ec.message());
  }
  // Each call writes its own temp file: two writers of one path (hedged
  // computes of one cell, backends sharing a checkpoint dir) must never
  // share an inode, or one's writes land in the file the other publishes.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  // POSIX fds rather than fstream: temp+rename only survives power loss if
  // the temp file's data is fsynced before the rename and the directory
  // entry is fsynced after it.
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open '" + tmp +
                           "' for writing: " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("write failed for '" + tmp +
                             "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("fsync failed for '" + tmp +
                           "': " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close failed for '" + tmp +
                           "': " + std::strerror(errno));
  }
  std::filesystem::rename(tmp, target, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot publish '" + path + "'");
  }
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return Status::IOError("cannot open directory '" + dir.string() +
                           "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(dir_fd) != 0) {
    int err = errno;
    ::close(dir_fd);
    return Status::IOError("fsync failed for directory '" + dir.string() +
                           "': " + std::strerror(err));
  }
  ::close(dir_fd);
  return Status::OK();
}

}  // namespace fairem
