#include "tracer.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t Tracer::begin(const char* name, std::size_t parent) {
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{name, now, now, parent});
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id, Clock::time_point at) { spans_[id].end = at; }

std::size_t Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                        std::size_t parent) {
  spans_.push_back(Span{name, start, end, parent});
  return spans_.size() - 1;
}

double Tracer::seconds(std::size_t id) const {
  return std::chrono::duration<double>(spans_[id].end - spans_[id].start).count();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = seconds(i);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kRoot) self[spans_[i].parent] -= seconds(i);
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.count += 1;
    t.seconds += seconds(i);
    t.self_seconds += self[i];
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << micros(s.start)
        << ",\"dur\":" << micros(s.end) - micros(s.start) << ",\"args\":{\"id\":" << i
        << ",\"parent\":";
    if (s.parent == kRoot) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace perfbench
