#include "check/net.hpp"

#include <set>
#include <tuple>

namespace check {
namespace {

using dist::LeaseEvent;

[[nodiscard]] std::string describe(const LeaseEvent& event) {
  std::string out = "seq " + std::to_string(event.seq) + " " + event.kind;
  if (event.worker != LeaseEvent::npos) out += " worker=" + std::to_string(event.worker);
  if (event.stripe != LeaseEvent::npos) out += " stripe=" + std::to_string(event.stripe);
  if (event.attempt != LeaseEvent::npos) out += " attempt=" + std::to_string(event.attempt);
  if (!event.detail.empty()) out += " detail=" + event.detail;
  return out;
}

}  // namespace

std::optional<std::string> check_hello_before_lease(const std::vector<LeaseEvent>& events) {
  // Per-worker handshake state: every spawned link -- forked by the
  // coordinator or accepted from the listener -- owes a HELLO.
  std::set<std::size_t> spawned;
  std::set<std::size_t> helloed;
  std::size_t last_seq = 0;
  bool first = true;
  for (const LeaseEvent& event : events) {
    if (!first && event.seq <= last_seq) {
      // Coordinator restart: the log is append-mode across runs.
      spawned.clear();
      helloed.clear();
    }
    first = false;
    last_seq = event.seq;

    if (event.kind == "spawn") {
      // A reconnecting client reuses no credentials: HELLO again.
      spawned.insert(event.worker);
      helloed.erase(event.worker);
      continue;
    }
    if (event.kind == "hello") {
      if (!spawned.contains(event.worker)) {
        return "hello_before_lease: " + describe(event) +
               " -- hello from a worker never spawned";
      }
      helloed.insert(event.worker);
      continue;
    }
    if (event.kind == "dead") {
      spawned.erase(event.worker);
      helloed.erase(event.worker);
      continue;
    }
    if (event.kind == "lease" && !helloed.contains(event.worker)) {
      return "hello_before_lease: " + describe(event) +
             " -- lease granted to a worker before its HELLO";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_fetch_before_done(const std::vector<LeaseEvent>& events) {
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> fetches;
  std::size_t last_seq = 0;
  bool first = true;
  for (const LeaseEvent& event : events) {
    if (!first && event.seq <= last_seq) fetches.clear();
    first = false;
    last_seq = event.seq;

    if (event.kind == "fetch") {
      fetches.insert({event.worker, event.stripe, event.attempt});
      continue;
    }
    if (event.kind == "done" && event.detail == "fetched") {
      if (!fetches.contains({event.worker, event.stripe, event.attempt})) {
        return "fetch_before_done: " + describe(event) +
               " -- stripe committed without a preceding fetch";
      }
    }
  }
  return std::nullopt;
}

}  // namespace check
