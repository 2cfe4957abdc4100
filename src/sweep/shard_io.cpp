#include "sweep/shard_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace sweep {
namespace {

[[nodiscard]] std::string errno_message(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// write(2) the whole buffer, retrying short writes and EINTR.
/// Returns "" on success, the errno account on failure.
[[nodiscard]] std::string write_all(int fd, const char* data, std::size_t size,
                                    const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted flush: retry, never truncate
      return errno_message("writing", path);
    }
    written += static_cast<std::size_t>(n);
  }
  return "";
}

void fsync_or_throw(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    throw std::runtime_error(errno_message("fsync", path));
  }
}

/// fsync the directory containing `path`, so the rename that published
/// a file is itself durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error(errno_message("opening directory", dir));
  try {
    fsync_or_throw(fd, dir);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

}  // namespace

/// The fd-backed streambuf: characters accumulate in `pending`;
/// sync() (any ostream flush) writes the whole backlog EINTR-safely.
/// A failed write is latched in `error` and reported as badbit.
struct ShardWriter::Buf final : std::streambuf {
  int fd = -1;
  std::string path;
  std::string pending;
  std::string error;

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return sync() == 0 ? 0 : traits_type::eof();
    pending += traits_type::to_char_type(ch);
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending.append(s, static_cast<std::size_t>(n));
    return n;
  }

  int sync() override {
    if (!error.empty()) return -1;  // stay failed until the caller notices
    if (pending.empty()) return 0;
    error = write_all(fd, pending.data(), pending.size(), path);
    if (!error.empty()) return -1;
    pending.clear();
    return 0;
  }
};

ShardWriter::ShardWriter(std::string path) : buf_(std::make_unique<Buf>()) {
  buf_->path = std::move(path);
  buf_->fd = ::open(buf_->path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (buf_->fd < 0) throw std::runtime_error(errno_message("cannot open", buf_->path));
  stream_ = std::make_unique<std::ostream>(buf_.get());
}

ShardWriter::~ShardWriter() {
  stream_->flush();
  ::close(buf_->fd);
}

std::ostream& ShardWriter::stream() { return *stream_; }

void ShardWriter::append_line(std::string_view line) {
  *stream_ << line << '\n' << std::flush;
  if (!*stream_) {
    throw std::runtime_error("writing " + buf_->path + " failed" +
                             (buf_->error.empty() ? "" : ": " + buf_->error));
  }
}

void ShardWriter::sync() {
  stream_->flush();
  if (!*stream_) {
    throw std::runtime_error("flushing " + buf_->path + " failed" +
                             (buf_->error.empty() ? "" : ": " + buf_->error));
  }
  fsync_or_throw(buf_->fd, buf_->path);
}

void write_lines_atomic(const std::string& path, const std::vector<std::string>& lines) {
  const std::string temp = path + ".tmp";
  if (::unlink(temp.c_str()) != 0 && errno != ENOENT) {
    throw std::runtime_error(errno_message("removing", temp));
  }
  {
    ShardWriter writer(temp);
    for (const std::string& line : lines) writer.append_line(line);
    writer.sync();
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error(errno_message("renaming " + temp + " over", path));
  }
  fsync_parent_dir(path);
}

RecordFile open_record_file(const Grid& grid, const std::string& path, bool resume) {
  RecordFile file;
  if (std::ifstream existing(path); resume && existing) {
    file.kept = scan_records(existing);
    validate_records_for_grid(grid, file.kept.lines);
    for (const std::string& line : file.kept.lines) file.done.insert(record_key(line)->cell);
  }
  write_lines_atomic(path, file.kept.lines);
  file.writer = std::make_unique<ShardWriter>(path);
  return file;
}

}  // namespace sweep
