#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// In-memory span recorder for the traced run.  Spans (name, start,
/// end, parent) are appended while the run executes and written out
/// only when it ends, so recording costs one clock read and one vector
/// append per boundary.
///
/// A span's parent is the layer that caused it.  Where the benchmark
/// replays a layer's work separately (the workload generation inside a
/// replica, say), the replay span is recorded as a child of the span
/// whose work it reproduces, so children need not lie inside their
/// parent's interval: self time is duration minus the summed durations
/// of the children.
class Tracer {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent = kRoot;
  };

  /// Per-name aggregate over all spans of that name.
  struct Totals {
    std::size_t count = 0;
    double seconds = 0.0;       ///< summed durations
    double self_seconds = 0.0;  ///< summed (duration - children)
  };

  std::size_t begin(const char* name, std::size_t parent = kRoot);
  void end(std::size_t id, Clock::time_point at = Clock::now());
  /// A span whose interval was measured elsewhere (an event callback).
  std::size_t add(const char* name, Clock::time_point start, Clock::time_point end,
                  std::size_t parent = kRoot);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double seconds(std::size_t id) const;
  /// Duration minus the summed durations of the span's children.
  [[nodiscard]] std::vector<double> self_seconds() const;
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.  A null
/// tracer records nothing, so one code path serves the untraced and
/// the traced passes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::size_t parent = Tracer::kRoot)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, parent) : Tracer::kRoot) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::size_t id_;
};

}  // namespace perfbench
