// sweep::ShardWriter / write_lines_atomic / open_record_file: the
// record I/O every sweep output rides on.  Appends reach the file with
// one write(2) each, retried through short writes and EINTR; sync()
// makes them durable; a rewrite is atomic; and a record file reopened
// for resuming keeps exactly its complete records of the same grid.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard_io.hpp"

namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_shardio_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The message of the std::runtime_error `fn` throws ("" if none).
template <class Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ShardWriter, AppendLineReachesTheFileBeforeReturning) {
  // Every append is written before it returns, so a SIGKILL right
  // after an append loses nothing already appended.
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  sweep::ShardWriter writer(path);
  writer.append_line("{\"a\":1}");
  EXPECT_EQ(read_file(path), "{\"a\":1}\n");
  writer.append_line("{\"b\":2}");
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(ShardWriter, AppendsAfterWhatTheFileHolds) {
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  std::ofstream(path) << "{\"a\":1}\n";
  {
    sweep::ShardWriter writer(path);
    writer.append_line("{\"b\":2}");
  }
  sweep::ShardWriter(path).append_line("{\"c\":3}");
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
}

TEST(ShardWriter, StreamWritesReachTheFileOnFlushAndSync) {
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  sweep::ShardWriter writer(path);
  writer.stream() << "{\"a\":" << 1 << "}\n" << std::flush;
  EXPECT_EQ(read_file(path), "{\"a\":1}\n");
  writer.stream() << "{\"b\":2}\n";
  writer.sync();
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(ShardWriter, IoErrorsThrowNamingThePath) {
  const TempDir dir;
  const std::string missing = dir.path() + "/no/such/dir/records.jsonl";
  EXPECT_NE(runtime_error_of([&] { sweep::ShardWriter writer(missing); }).find(missing),
            std::string::npos);

  // /dev/full fails every write with ENOSPC: the append, a stream
  // flush (badbit) and the next sync all report it with the path.
  sweep::ShardWriter full("/dev/full");
  const std::string append = runtime_error_of([&] { full.append_line("{\"a\":1}"); });
  EXPECT_NE(append.find("/dev/full"), std::string::npos) << append;
  EXPECT_NE(append.find("No space left on device"), std::string::npos) << append;

  sweep::ShardWriter flushed("/dev/full");
  flushed.stream() << "{\"a\":1}\n" << std::flush;
  EXPECT_FALSE(flushed.stream());
  EXPECT_NE(runtime_error_of([&] { flushed.sync(); }).find("/dev/full"), std::string::npos);
}

void ignore_signal(int) {}

TEST(ShardWriter, ShortWritesAndEintrAreRetried) {
  // A record larger than a pipe's buffer, appended to a FIFO that a
  // slow reader drains while interrupting the writer with a signal
  // installed without SA_RESTART.  After each read the blocked write
  // makes progress, so the first signal cuts it short; the retry then
  // blocks on the full pipe with nothing written, so the second signal
  // fails it with EINTR.  Every byte must still arrive, in order,
  // exactly once.
  const TempDir dir;
  const std::string fifo = dir.path() + "/records.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = ignore_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::string record(1u << 18, 'x');
  for (std::size_t i = 0; i < record.size(); i += 997) record[i] = static_cast<char>('a' + i % 26);
  const pthread_t writer_thread = ::pthread_self();
  std::atomic<std::size_t> signals{0};
  std::string received;
  std::thread reader([&] {
    const int fd = ::open(fifo.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    char buffer[4096];
    for (ssize_t n; (n = ::read(fd, buffer, sizeof buffer)) != 0;) {
      if (n < 0) continue;
      received.append(buffer, static_cast<std::size_t>(n));
      for (int cut = 0; cut < 2 && received.size() < record.size(); ++cut) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        ::pthread_kill(writer_thread, SIGUSR1);
        signals += 1;
      }
    }
    ::close(fd);
  });
  EXPECT_NO_THROW(sweep::ShardWriter(fifo).append_line(record));
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_GT(signals.load(), 0u);
  EXPECT_EQ(received.size(), record.size() + 1);
  EXPECT_TRUE(received == record + "\n");
}

TEST(WriteLinesAtomic, WritesAllLinesDurablyAndOverwrites) {
  const TempDir dir;
  const std::string path = dir.path() + "/out.jsonl";
  sweep::write_lines_atomic(path, {"{\"a\":1}", "{\"b\":2}"});
  EXPECT_EQ(read_file(path), "{\"a\":1}\n{\"b\":2}\n");
  sweep::write_lines_atomic(path, {"{\"c\":3}"});
  EXPECT_EQ(read_file(path), "{\"c\":3}\n");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(WriteLinesAtomic, FailuresThrowInsteadOfHalfWriting) {
  EXPECT_THROW(sweep::write_lines_atomic("/no/such/dir/out.jsonl", {"x"}), std::runtime_error);
  // A blocked temp path leaves the target untouched.
  const TempDir dir;
  const std::string path = dir.path() + "/out.jsonl";
  sweep::write_lines_atomic(path, {"{\"a\":1}"});
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  EXPECT_THROW(sweep::write_lines_atomic(path, {"{\"b\":2}"}), std::runtime_error);
  EXPECT_EQ(read_file(path), "{\"a\":1}\n");
}

constexpr const char* kSpec =
    "workload constant:1.0\ntasks 64\nseed 7\ntechnique SS\nsweep workers 2 4 8\n";

std::vector<std::string> serial_records(const char* spec = kSpec) {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(sweep::parse_grid(spec), {}, out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(OpenRecordFile, ResumeKeepsTheCompleteRecordsAndAppendsAfterThem) {
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  const sweep::Grid grid = sweep::parse_grid(kSpec);
  const std::vector<std::string> records = serial_records();
  ASSERT_EQ(records.size(), 3u);
  // One whole record and half of a second: a kill mid-append.
  std::ofstream(path) << records[0] << "\n" << records[1].substr(0, records[1].size() / 2);

  sweep::RecordFile file = sweep::open_record_file(grid, path, /*resume=*/true);
  EXPECT_EQ(file.kept.lines, std::vector<std::string>{records[0]});
  EXPECT_EQ(file.kept.done.size(), 1u);
  EXPECT_TRUE(file.kept.dropped_partial_tail);
  EXPECT_EQ(read_file(path), records[0] + "\n");  // the torn tail is gone from disk too
  file.writer->append_line(records[1]);
  EXPECT_EQ(read_file(path), records[0] + "\n" + records[1] + "\n");
}

TEST(OpenRecordFile, WithoutResumeTheFileIsEmptied) {
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  std::ofstream(path) << serial_records()[0] << "\n";
  const sweep::RecordFile file =
      sweep::open_record_file(sweep::parse_grid(kSpec), path, /*resume=*/false);
  EXPECT_TRUE(file.kept.lines.empty());
  EXPECT_EQ(read_file(path), "");
}

TEST(OpenRecordFile, RecordsOfAnotherSpecAreRefusedAndKept) {
  const TempDir dir;
  const std::string path = dir.path() + "/records.jsonl";
  const std::string other = serial_records(
      "workload constant:1.0\ntasks 64\nseed 8\ntechnique SS\nsweep workers 2 4 8\n")[0];
  std::ofstream(path) << other << "\n";
  EXPECT_THROW((void)sweep::open_record_file(sweep::parse_grid(kSpec), path, /*resume=*/true),
               std::invalid_argument);
  EXPECT_EQ(read_file(path), other + "\n");
}

}  // namespace
