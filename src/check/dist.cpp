#include "check/dist.hpp"

#include <map>
#include <set>
#include <string>

#include "sweep/record.hpp"

namespace check {
namespace {

std::string key_name(const sweep::RecordKey& key) {
  return "cell " + std::to_string(key.cell) + " backend " + key.backend;
}

std::string event_name(const dist::LeaseEvent& event) {
  std::string name = "event seq " + std::to_string(event.seq) + " (" + event.kind;
  if (event.worker != dist::LeaseEvent::npos) {
    name += " worker " + std::to_string(event.worker);
  }
  if (event.stripe != dist::LeaseEvent::npos) {
    name += " stripe " + std::to_string(event.stripe);
  }
  name += ")";
  return name;
}

}  // namespace

std::optional<std::string> check_merged_unique_cells(const std::vector<std::string>& lines) {
  std::map<sweep::RecordKey, std::size_t> first_seen;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto key = sweep::record_key(lines[i]);
    if (!key) {
      return "merged line " + std::to_string(i + 1) +
             " is not a complete record (torn tail in a MERGED output?)";
    }
    const auto [it, inserted] = first_seen.emplace(*key, i + 1);
    if (!inserted) {
      return key_name(*key) + " appears twice in the merged output (lines " +
             std::to_string(it->second) + " and " + std::to_string(i + 1) +
             ") -- a retried stripe was double-counted";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_merged_complete(const sweep::Grid& grid,
                                                 const std::vector<std::string>& lines) {
  if (const auto duplicate = check_merged_unique_cells(lines)) return duplicate;
  std::set<sweep::RecordKey> present;
  for (const std::string& line : lines) present.insert(*sweep::record_key(line));
  for (std::size_t index = 0; index < grid.cells(); ++index) {
    const sweep::RecordKey key{index, grid.backend};
    if (!present.erase(key)) {
      return key_name(key) + " is missing from the merged output (" +
             std::to_string(lines.size()) + " records for a " +
             std::to_string(grid.cells()) + "-cell grid) -- a reclaimed lease lost work";
    }
  }
  if (!present.empty()) {
    return key_name(*present.begin()) +
           " does not belong to the grid -- merged output from a different spec?";
  }
  return std::nullopt;
}

std::optional<std::string> check_lease_exclusivity(const std::vector<dist::LeaseEvent>& events) {
  // Replay state: which worker holds each stripe, which stripe each
  // live worker holds, which workers are live.  A seq that moves
  // backward marks the start of an appended coordinator-restart run
  // (the events file is opened in append mode), so the replay resets.
  std::map<std::size_t, std::size_t> stripe_holder;  // stripe -> worker
  std::map<std::size_t, std::size_t> worker_lease;   // worker -> stripe
  std::set<std::size_t> live;
  std::size_t last_seq = 0;
  bool first = true;

  for (const dist::LeaseEvent& event : events) {
    if (!first && event.seq <= last_seq) {
      stripe_holder.clear();
      worker_lease.clear();
      live.clear();
    }
    first = false;
    last_seq = event.seq;

    if (event.kind == "spawn") {
      live.insert(event.worker);
    } else if (event.kind == "lease") {
      if (!live.count(event.worker)) {
        return event_name(event) + ": lease granted to a worker never spawned or already dead";
      }
      if (const auto held = stripe_holder.find(event.stripe); held != stripe_holder.end()) {
        return event_name(event) + ": stripe already leased to live worker " +
               std::to_string(held->second) + " -- two live workers hold one lease";
      }
      if (const auto busy = worker_lease.find(event.worker); busy != worker_lease.end()) {
        return event_name(event) + ": worker already holds a lease on stripe " +
               std::to_string(busy->second);
      }
      stripe_holder.emplace(event.stripe, event.worker);
      worker_lease.emplace(event.worker, event.stripe);
    } else if (event.kind == "done" || event.kind == "reclaim" ||
               (event.kind == "adopt" && event.worker != dist::LeaseEvent::npos)) {
      // Terminal events of a held lease must come from its holder.
      // (adopt with worker == npos is a coordinator-restart adoption of
      // an unleased published stripe.)
      const auto held = stripe_holder.find(event.stripe);
      if (held == stripe_holder.end()) {
        return event_name(event) + ": stripe was not leased";
      }
      if (held->second != event.worker) {
        return event_name(event) + ": stripe is leased to worker " +
               std::to_string(held->second) + ", not worker " + std::to_string(event.worker);
      }
      worker_lease.erase(held->second);
      stripe_holder.erase(held);
    } else if (event.kind == "dead") {
      // A dead worker's lease must already have been reclaimed (the
      // coordinator logs reclaim before dead) or it leaks.
      if (const auto busy = worker_lease.find(event.worker); busy != worker_lease.end()) {
        return event_name(event) + ": worker died still holding stripe " +
               std::to_string(busy->second) + " -- its lease was never reclaimed";
      }
      live.erase(event.worker);
    } else if (event.kind == "complete") {
      if (!stripe_holder.empty()) {
        return event_name(event) + ": run completed with stripe " +
               std::to_string(stripe_holder.begin()->first) + " still leased";
      }
    }
    // ready/retry/giveup/adopt(npos) carry no exclusivity state.
  }
  return std::nullopt;
}

}  // namespace check
