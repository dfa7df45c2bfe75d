// Copyright (c) 2026 The DeltaMerge Authors.

#include "util/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/crc32.h"

namespace deltamerge {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " failed for '" + path +
                          "': " + std::strerror(errno));
}

Status WriteAllFd(int fd, const uint8_t* data, size_t n,
                  const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

// --- FileWriter -------------------------------------------------------------

FileWriter::FileWriter(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {
  buffer_.reserve(kDefaultBufferBytes);
}

FileWriter::~FileWriter() { (void)Close(); }

Result<std::unique_ptr<FileWriter>> FileWriter::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);
  return std::unique_ptr<FileWriter>(new FileWriter(path, fd));
}

Status FileWriter::Write(const void* data, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("writer is closed");
  if (crc_armed_) crc_ = Crc32(data, n, crc_);
  bytes_written_ += n;
  const auto* p = static_cast<const uint8_t*>(data);
  // Large writes bypass the buffer once it has been drained.
  if (buffer_.size() + n > kDefaultBufferBytes) {
    DM_RETURN_NOT_OK(Flush());
    if (n > kDefaultBufferBytes) return WriteAllFd(fd_, p, n, path_);
  }
  buffer_.insert(buffer_.end(), p, p + n);
  return Status::OK();
}

Status FileWriter::Flush() {
  if (fd_ < 0) return Status::FailedPrecondition("writer is closed");
  if (buffer_.empty()) return Status::OK();
  DM_RETURN_NOT_OK(WriteAllFd(fd_, buffer_.data(), buffer_.size(), path_));
  buffer_.clear();
  return Status::OK();
}

Status FileWriter::Sync() {
  DM_RETURN_NOT_OK(Flush());
  return SyncData();
}

Status FileWriter::SyncData() {
  if (fd_ < 0) return Status::FailedPrecondition("writer is closed");
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
  return Status::OK();
}

Status FileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status st = Flush();
  if (::close(fd_) != 0 && st.ok()) st = Errno("close", path_);
  fd_ = -1;
  return st;
}

// --- FileReader -------------------------------------------------------------

FileReader::FileReader(std::string path, int fd, uint64_t file_size)
    : path_(std::move(path)), fd_(fd), file_size_(file_size) {
  buffer_.resize(kDefaultBufferBytes);
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FileReader>> FileReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("fstat", path);
  }
  return std::unique_ptr<FileReader>(
      new FileReader(path, fd, static_cast<uint64_t>(st.st_size)));
}

Result<size_t> FileReader::ReadUpTo(void* out, size_t n) {
  auto* dst = static_cast<uint8_t*>(out);
  size_t got = 0;
  while (got < n) {
    if (buf_pos_ == buf_len_) {
      // A drained buffer and a request at least its size: read(2) into
      // the destination directly rather than copying through the buffer.
      const bool direct = n - got >= buffer_.size();
      uint8_t* const into = direct ? dst + got : buffer_.data();
      const size_t want = direct ? n - got : buffer_.size();
      ssize_t r;
      do {
        r = ::read(fd_, into, want);
      } while (r < 0 && errno == EINTR);
      if (r < 0) return Errno("read", path_);
      if (r == 0) break;  // EOF
      if (direct) {
        got += static_cast<size_t>(r);
        continue;
      }
      buf_pos_ = 0;
      buf_len_ = static_cast<size_t>(r);
    }
    const size_t take = std::min(n - got, buf_len_ - buf_pos_);
    std::memcpy(dst + got, buffer_.data() + buf_pos_, take);
    buf_pos_ += take;
    got += take;
  }
  if (crc_armed_) crc_ = Crc32(dst, got, crc_);
  offset_ += got;
  return got;
}

Status FileReader::Read(void* out, size_t n) {
  DM_ASSIGN_OR_RETURN(const size_t got, ReadUpTo(out, n));
  if (got != n) {
    return Status::OutOfRange("short read from '" + path_ + "'");
  }
  return Status::OK();
}

// --- directory helpers ------------------------------------------------------

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Errno("mkdir", dir);
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open(dir)", dir);
  Status st = Status::OK();
  if (::fsync(fd) != 0) st = Errno("fsync(dir)", dir);
  ::close(fd);
  return st;
}

Status AtomicRename(const std::string& from, const std::string& to,
                    const std::string& dir) {
  if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
  return SyncDir(dir);
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::OK();
  return Errno("unlink", path);
}

Status RemoveDirAll(const std::string& dir) {
  auto names = ListDir(dir);
  if (!names.ok()) {
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0 && errno == ENOENT) {
      return Status::OK();
    }
    return names.status();
  }
  Status st = Status::OK();
  for (const auto& name : names.ValueOrDie()) {
    const std::string path = dir + "/" + name;
    // lstat, not stat: a symlink to a directory must be unlinked as a
    // link, never followed and emptied out.
    struct stat entry{};
    const Status rm = (::lstat(path.c_str(), &entry) == 0 &&
                       S_ISDIR(entry.st_mode))
                          ? RemoveDirAll(path)
                          : RemoveFile(path);
    if (!rm.ok() && st.ok()) st = rm;
  }
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT && st.ok()) {
    st = Errno("rmdir", dir);
  }
  return st;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace deltamerge
