#include "dist/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "sweep/grid.hpp"

namespace dist {
namespace {

[[nodiscard]] std::invalid_argument bad_line(std::string_view what, std::string_view line) {
  return std::invalid_argument(std::string(what) + ": '" + std::string(line) + "'");
}

/// Split on single spaces; the FAIL message tail is handled by the
/// caller before splitting.
[[nodiscard]] std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const auto space = line.find(' ', start);
    if (space == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return out;
}

template <typename T = std::size_t>
[[nodiscard]] T parse_uint(std::string_view token, std::string_view line, int base = 10) {
  T value = 0;
  const char* const first = token.data();
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc() || ptr != last || token.empty()) {
    throw bad_line("protocol: malformed integer field", line);
  }
  return value;
}

/// DONE's digest field: 16 hex digits.
[[nodiscard]] std::string digest_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) out[15 - i] = digits[(value >> (4 * i)) & 0xF];
  return out;
}

}  // namespace

std::string encode(const CoordinatorMsg& msg) {
  if (const auto* lease = std::get_if<LeaseMsg>(&msg)) {
    return "LEASE " + std::to_string(lease->stripe) + " " + std::to_string(lease->stripe_count) +
           " " + std::to_string(lease->attempt) + " " + std::to_string(lease->held);
  }
  if (std::holds_alternative<PingMsg>(msg)) return "PING";
  if (const auto* spec = std::get_if<SpecMsg>(&msg)) return "SPEC " + spec->text;
  return "QUIT";
}

std::string encode(const WorkerMsg& msg) {
  if (std::holds_alternative<ReadyMsg>(msg)) return "READY";
  if (const auto* hb = std::get_if<HeartbeatMsg>(&msg)) {
    return "HB " + std::to_string(hb->computed);
  }
  if (const auto* record = std::get_if<RecordMsg>(&msg)) return "RECORD " + record->bytes;
  if (const auto* done = std::get_if<DoneMsg>(&msg)) {
    return "DONE " + std::to_string(done->stripe) + " " + std::to_string(done->attempt) + " " +
           std::to_string(done->records) + " " + digest_hex(done->digest);
  }
  if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
    return "HELLO " + std::to_string(hello->version) + " " +
           (hello->token.empty() ? "-" : hello->token);
  }
  const auto& fail = std::get<FailMsg>(msg);
  // The message is the tail of the line; newlines would break framing.
  std::string text = fail.message;
  std::replace(text.begin(), text.end(), '\n', ' ');
  return "FAIL " + std::to_string(fail.stripe) + " " + std::to_string(fail.attempt) + " " + text;
}

CoordinatorMsg parse_coordinator_msg(std::string_view line) {
  if (line == "QUIT") return QuitMsg{};
  if (line == "PING") return PingMsg{};
  // SPEC carries a binary tail (the spec text, newlines and all) --
  // peel it off before the space-splitting below would mangle it.
  if (line.starts_with("SPEC ")) return SpecMsg{std::string(line.substr(5))};
  const std::vector<std::string_view> tokens = split(line);
  if (tokens.size() == 5 && tokens[0] == "LEASE") {
    LeaseMsg lease;
    lease.stripe = parse_uint(tokens[1], line);
    lease.stripe_count = parse_uint(tokens[2], line);
    lease.attempt = parse_uint(tokens[3], line);
    lease.held = parse_uint(tokens[4], line);
    if (lease.stripe_count == 0 || lease.stripe >= lease.stripe_count) {
      throw bad_line("protocol: lease stripe out of range", line);
    }
    return lease;
  }
  throw bad_line("protocol: unknown coordinator message", line);
}

WorkerMsg parse_worker_msg(std::string_view line) {
  if (line == "READY") return ReadyMsg{};
  // RECORD carries a binary tail (record bytes): everything after
  // the verb is payload.
  if (line.starts_with("RECORD ")) return RecordMsg{std::string(line.substr(7))};
  const std::vector<std::string_view> tokens = split(line);
  if (tokens.size() == 3 && tokens[0] == "HELLO") {
    HelloMsg hello;
    hello.version = parse_uint(tokens[1], line);
    hello.token = tokens[2] == "-" ? std::string() : std::string(tokens[2]);
    return hello;
  }
  if (tokens.size() == 2 && tokens[0] == "HB") {
    return HeartbeatMsg{parse_uint(tokens[1], line)};
  }
  if (tokens.size() == 5 && tokens[0] == "DONE") {
    DoneMsg done;
    done.stripe = parse_uint(tokens[1], line);
    done.attempt = parse_uint(tokens[2], line);
    done.records = parse_uint(tokens[3], line);
    done.digest = parse_uint<std::uint64_t>(tokens[4], line, 16);
    return done;
  }
  if (tokens.size() >= 3 && tokens[0] == "FAIL") {
    FailMsg fail;
    fail.stripe = parse_uint(tokens[1], line);
    fail.attempt = parse_uint(tokens[2], line);
    // Everything after the third space is the message.
    std::size_t spaces = 0;
    std::size_t pos = 0;
    for (; pos < line.size() && spaces < 3; ++pos) {
      if (line[pos] == ' ') ++spaces;
    }
    fail.message = std::string(line.substr(pos));
    return fail;
  }
  throw bad_line("protocol: unknown worker message", line);
}

std::string stripe_final_path(std::string_view dir, std::size_t stripe) {
  return std::string(dir) + "/stripe" + std::to_string(stripe) + ".jsonl";
}

std::chrono::milliseconds backoff_delay(std::size_t attempt, std::chrono::milliseconds base,
                                        std::chrono::milliseconds cap) {
  if (attempt == 0) return std::chrono::milliseconds(0);
  if (base.count() <= 0) return std::chrono::milliseconds(0);
  const std::size_t shift = attempt - 1;
  // base doubles per attempt until it passes cap; 63 bits of shift is
  // already saturation for any representable base.
  if (shift >= 63) return cap;
  const std::int64_t scaled = base.count() <= cap.count() >> shift ? base.count() << shift
                                                                   : cap.count();
  return std::chrono::milliseconds(std::min<std::int64_t>(scaled, cap.count()));
}

std::string_view chaos_mode_name(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kill: return "kill";
    case ChaosMode::hang: return "hang";
  }
  return "kill";
}

ChaosMode parse_chaos_mode(std::string_view name) {
  if (name == "kill") return ChaosMode::kill;
  if (name == "hang") return ChaosMode::hang;
  throw std::invalid_argument("chaos: unknown mode '" + std::string(name) +
                              "' (kill | hang)");
}

std::vector<ChaosKill> parse_chaos_list(std::string_view text) {
  std::vector<ChaosKill> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const std::string_view item =
        comma == std::string_view::npos ? text.substr(start) : text.substr(start, comma - start);
    const auto c1 = item.find(':');
    if (c1 == std::string_view::npos) {
      throw std::invalid_argument("chaos: directive must be <worker>:<after_cells>[:<mode>], "
                                  "got '" + std::string(item) + "'");
    }
    const auto c2 = item.find(':', c1 + 1);
    ChaosKill kill;
    kill.worker = parse_uint(item.substr(0, c1), item);
    kill.after_cells =
        parse_uint(c2 == std::string_view::npos ? item.substr(c1 + 1)
                                                : item.substr(c1 + 1, c2 - c1 - 1),
                   item);
    if (c2 != std::string_view::npos) kill.mode = parse_chaos_mode(item.substr(c2 + 1));
    if (kill.after_cells == 0) {
      throw std::invalid_argument("chaos: after_cells must be >= 1 in '" + std::string(item) +
                                  "'");
    }
    out.push_back(kill);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<ChaosKill> derive_chaos(std::uint64_t seed, std::size_t kills, std::size_t workers,
                                    std::size_t max_after) {
  if (kills > workers) {
    throw std::invalid_argument("chaos: cannot kill " + std::to_string(kills) + " of " +
                                std::to_string(workers) + " workers");
  }
  if (max_after == 0) max_after = 1;
  std::vector<ChaosKill> out;
  std::vector<bool> used(workers, false);
  std::uint64_t stream = seed;
  for (std::size_t i = 0; i < kills; ++i) {
    ChaosKill kill;
    // Distinct workers: probe the splitmix64 stream until a free slot.
    do {
      stream = sweep::splitmix64(stream);
      kill.worker = static_cast<std::size_t>(stream % workers);
    } while (used[kill.worker]);
    used[kill.worker] = true;
    stream = sweep::splitmix64(stream);
    kill.after_cells = 1 + static_cast<std::size_t>(stream % max_after);
    out.push_back(kill);
  }
  return out;
}

std::string encode_lease_event(const LeaseEvent& event) {
  std::string out = "{\"seq\":" + std::to_string(event.seq);
  out += ",\"event\":\"" + event.kind + "\"";
  if (event.worker != LeaseEvent::npos) out += ",\"worker\":" + std::to_string(event.worker);
  if (event.stripe != LeaseEvent::npos) out += ",\"stripe\":" + std::to_string(event.stripe);
  if (event.attempt != LeaseEvent::npos) out += ",\"attempt\":" + std::to_string(event.attempt);
  if (event.backoff_ms >= 0) out += ",\"backoff_ms\":" + std::to_string(event.backoff_ms);
  if (!event.detail.empty()) out += ",\"detail\":\"" + event.detail + "\"";
  out += "}";
  return out;
}

namespace {

[[nodiscard]] std::optional<std::size_t> event_uint(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::size_t value = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::size_t>(line[i] - '0');
  }
  return value;
}

[[nodiscard]] std::optional<std::string> event_string(std::string_view line,
                                                      std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(start, end - start));
}

}  // namespace

std::optional<LeaseEvent> parse_lease_event(std::string_view line) {
  if (!line.starts_with("{\"seq\":") || !line.ends_with("}")) return std::nullopt;
  LeaseEvent event;
  const std::optional<std::size_t> seq = event_uint(line, "seq");
  std::optional<std::string> kind = event_string(line, "event");
  if (!seq || !kind) return std::nullopt;
  event.seq = *seq;
  event.kind = *std::move(kind);
  if (const auto worker = event_uint(line, "worker")) event.worker = *worker;
  if (const auto stripe = event_uint(line, "stripe")) event.stripe = *stripe;
  if (const auto attempt = event_uint(line, "attempt")) event.attempt = *attempt;
  if (const auto backoff = event_uint(line, "backoff_ms")) {
    event.backoff_ms = static_cast<std::int64_t>(*backoff);
  }
  if (auto detail = event_string(line, "detail")) event.detail = *std::move(detail);
  return event;
}

}  // namespace dist
