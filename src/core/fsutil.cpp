#include "core/fsutil.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace rnl::core::fsutil {

namespace fs = std::filesystem;

namespace {

util::Status errno_error(const std::string& what, const std::string& path) {
  return util::Error{what + " " + path + ": " + std::strerror(errno)};
}

util::Status write_all(int fd, const std::string& bytes,
                       const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("fsutil: write", path);
    }
    done += static_cast<std::size_t>(n);
  }
  return util::Status::Ok();
}

/// fsync the directory containing `path` so a rename/create of `path`
/// itself survives a crash.
util::Status fsync_parent_dir(const std::string& path) {
  // Fresh-constructed rather than assigned-over: GCC 12's -Wrestrict
  // false-positives on assigning a literal into existing string storage.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return errno_error("fsutil: open dir", dir);
  util::Status status = util::Status::Ok();
  if (::fsync(dfd) != 0) status = errno_error("fsutil: fsync dir", dir);
  ::close(dfd);
  return status;
}

}  // namespace

util::Status read_file(const std::string& path, std::string* out,
                       bool* found) {
  *found = false;
  out->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!fs::exists(path, ec)) return util::Status::Ok();  // missing, not I/O
    return util::Error{"fsutil: cannot open " + path};
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return util::Error{"fsutil: read failed on " + path};
  *found = true;
  *out = std::move(text);
  return util::Status::Ok();
}

util::Status write_file_durable(const std::string& path,
                                const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return errno_error("fsutil: open", tmp);
  util::Status status = write_all(fd, bytes, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = errno_error("fsutil: fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = errno_error("fsutil: close", tmp);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    util::Status err = errno_error("fsutil: rename", path);
    ::unlink(tmp.c_str());
    return err;
  }
  return fsync_parent_dir(path);
}

}  // namespace rnl::core::fsutil
