#pragma once

#include <memory>
#include <ostream>
#include <set>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/grid.hpp"
#include "sweep/record.hpp"

namespace sweep {

/// Durable, append-only record writer -- the record I/O contract of
/// every sweep output: `dls_sweep --out` and the distributed
/// coordinator's record journal both append through it.
///
/// The file is opened for appending (created if missing).  Each ostream
/// flush is an EINTR-safe write(2) of the buffered bytes, so a kill at
/// any instant leaves at most one truncated final line -- exactly what
/// scan_records expects and drops.  sync() makes every byte written so
/// far durable (fsync).
///
/// All I/O errors (open, write, fsync -- including disk full and
/// unwritable directories) throw std::runtime_error naming the path and
/// the errno message; short writes and EINTR are retried, not surfaced.
/// Writes through stream() record the failure and set the stream's
/// badbit (so callers already checking the stream see it), and the
/// next append_line()/sync() throws with the saved reason.
class ShardWriter {
 public:
  /// Opens `path` for appending.  Throws on failure.
  explicit ShardWriter(std::string path);
  /// Flushes what the stream still buffers (best effort) and closes.
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Buffered ostream over the file; every explicit flush is a full
  /// write(2) of the buffer.
  [[nodiscard]] std::ostream& stream();

  /// Append one record line (adds the newline) and flush it to the fd.
  void append_line(std::string_view line);

  /// Flush the stream, then fsync: every byte appended so far is
  /// durable when this returns.
  void sync();

 private:
  struct Buf;  // the fd-backed streambuf; holds the path
  std::unique_ptr<Buf> buf_;
  std::unique_ptr<std::ostream> stream_;
};

/// Write `lines` (newline-terminated) to `path` in one atomic, durable
/// step: temp file `path + ".tmp"` + fsync + rename + directory fsync
/// -- a sweep output must never be observable half-written.  Throws
/// std::runtime_error on any I/O failure.
void write_lines_atomic(const std::string& path, const std::vector<std::string>& lines);

/// A record file opened for appending, and the records it kept.
struct RecordFile {
  ScanResult kept;
  std::set<std::size_t> done;  ///< the cell indices of the kept records
  std::unique_ptr<ShardWriter> writer;
};

/// Open the record file `path` of `grid` for appending -- the one
/// resume path of `dls_sweep --out/--resume` and the coordinator's
/// journal.  With `resume`, the records `path` already holds are kept:
/// scan_records, then validate_records_for_grid (std::invalid_argument
/// for a malformed middle line, conflicting duplicates or a record of
/// another spec), and their cells fill `done`, the set SweepRunner::run
/// skips; without, the file is emptied.  The kept records are
/// rewritten with write_lines_atomic, which drops a torn tail and
/// cannot lose them to a crash mid-rewrite, and the file is then opened
/// for append.  I/O failures throw std::runtime_error.
[[nodiscard]] RecordFile open_record_file(const Grid& grid, const std::string& path, bool resume);

}  // namespace sweep
