// dist protocol: wire-format round trips, malformed-line rejection,
// backoff arithmetic, shard-file layout, chaos directives, and the
// lease-event log encoding the exclusivity invariant replays.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/protocol.hpp"

namespace {

using namespace std::chrono_literals;

TEST(Protocol, CoordinatorMessagesRoundTrip) {
  const dist::LeaseMsg lease{3, 8, 2, 5};
  EXPECT_EQ(dist::encode(dist::CoordinatorMsg(lease)), "LEASE 3 8 2 5");
  const auto parsed = dist::parse_coordinator_msg("LEASE 3 8 2 5");
  const auto& back = std::get<dist::LeaseMsg>(parsed);
  EXPECT_EQ(back.stripe, 3u);
  EXPECT_EQ(back.stripe_count, 8u);
  EXPECT_EQ(back.attempt, 2u);
  EXPECT_EQ(back.held, 5u);

  EXPECT_EQ(dist::encode(dist::CoordinatorMsg(dist::QuitMsg{})), "QUIT");
  EXPECT_TRUE(std::holds_alternative<dist::QuitMsg>(dist::parse_coordinator_msg("QUIT")));
}

TEST(Protocol, WorkerMessagesRoundTrip) {
  EXPECT_EQ(dist::encode(dist::WorkerMsg(dist::ReadyMsg{})), "READY");
  EXPECT_TRUE(std::holds_alternative<dist::ReadyMsg>(dist::parse_worker_msg("READY")));

  EXPECT_EQ(dist::encode(dist::WorkerMsg(dist::HeartbeatMsg{17})), "HB 17");
  EXPECT_EQ(std::get<dist::HeartbeatMsg>(dist::parse_worker_msg("HB 17")).computed, 17u);

  EXPECT_EQ(dist::encode(dist::WorkerMsg(dist::DoneMsg{2, 1, 5, 0xcbf29ce484222325})),
            "DONE 2 1 5 cbf29ce484222325");
  const auto done =
      std::get<dist::DoneMsg>(dist::parse_worker_msg("DONE 2 1 5 cbf29ce484222325"));
  EXPECT_EQ(done.stripe, 2u);
  EXPECT_EQ(done.attempt, 1u);
  EXPECT_EQ(done.records, 5u);
  EXPECT_EQ(done.digest, 0xcbf29ce484222325u);

  // RECORD's payload is opaque bytes: spaces, newlines and all.
  const std::string piece = "{\"cell\":0} x\n{\"ce";
  EXPECT_EQ(dist::encode(dist::WorkerMsg(dist::RecordMsg{piece})), "RECORD " + piece);
  EXPECT_EQ(std::get<dist::RecordMsg>(dist::parse_worker_msg("RECORD " + piece)).bytes, piece);

  // FAIL carries a free-text tail; embedded newlines are flattened so
  // the message stays one line.
  const dist::FailMsg fail{4, 0, "spec line 3:\nbad key"};
  const std::string encoded = dist::encode(dist::WorkerMsg(fail));
  EXPECT_EQ(encoded, "FAIL 4 0 spec line 3: bad key");
  EXPECT_EQ(std::get<dist::FailMsg>(dist::parse_worker_msg(encoded)).message,
            "spec line 3: bad key");
}

TEST(Protocol, MalformedLinesThrowNotIgnore) {
  // A garbled control stream is a failed peer -- every malformed line
  // must throw, never parse to a default message.
  for (const char* line : {"", "NOPE", "LEASE", "LEASE 1 2", "LEASE x 2 0 0",
                           "LEASE 1 2 0 -", "LEASE 1 2 0 0,1", "QUIT extra"}) {
    EXPECT_THROW((void)dist::parse_coordinator_msg(line), std::invalid_argument) << line;
  }
  for (const char* line : {"", "NOPE", "HB", "HB x", "RECORD", "DONE 1 2 3", "DONE 1 2 3 x",
                           "DONE 1 2 3 1123456789abcdef0", "FAIL 1"}) {
    EXPECT_THROW((void)dist::parse_worker_msg(line), std::invalid_argument) << line;
  }
}

TEST(Protocol, BackoffIsCappedExponentialAndSaturating) {
  EXPECT_EQ(dist::backoff_delay(1, 250ms, 5000ms), 250ms);
  EXPECT_EQ(dist::backoff_delay(2, 250ms, 5000ms), 500ms);
  EXPECT_EQ(dist::backoff_delay(3, 250ms, 5000ms), 1000ms);
  EXPECT_EQ(dist::backoff_delay(5, 250ms, 5000ms), 4000ms);
  EXPECT_EQ(dist::backoff_delay(6, 250ms, 5000ms), 5000ms);  // capped
  // Saturates instead of overflowing for absurd attempt counts.
  EXPECT_EQ(dist::backoff_delay(500, 250ms, 5000ms), 5000ms);
  EXPECT_EQ(dist::backoff_delay(0, 250ms, 5000ms), 0ms);  // first attempt: no wait
}

TEST(Protocol, ShardFileLayout) {
  EXPECT_EQ(dist::stripe_final_path("wd", 3), "wd/stripe3.jsonl");
}

TEST(Protocol, ChaosListParsesWorkerAfterAndMode) {
  const std::vector<dist::ChaosKill> kills = dist::parse_chaos_list("0:2,3:1:kill,1:4:hang");
  ASSERT_EQ(kills.size(), 3u);
  EXPECT_EQ(kills[0].worker, 0u);
  EXPECT_EQ(kills[0].after_cells, 2u);
  EXPECT_EQ(kills[0].mode, dist::ChaosMode::kill);  // the default
  EXPECT_EQ(kills[1].worker, 3u);
  EXPECT_EQ(kills[1].mode, dist::ChaosMode::kill);
  EXPECT_EQ(kills[2].mode, dist::ChaosMode::hang);

  // truncate and fetchcut are not chaos modes.
  for (const char* bad : {"x:1", "0", "0:1:explode", "0:1,", "0:1:truncate", "0:1:fetchcut"}) {
    EXPECT_THROW((void)dist::parse_chaos_list(bad), std::invalid_argument) << bad;
  }
}

TEST(Protocol, DerivedChaosIsSeededDeterministicAndDistinct) {
  const auto a = dist::derive_chaos(42, 2, 4, 3);
  const auto b = dist::derive_chaos(42, 2, 4, 3);
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].worker, b[i].worker);  // same seed, same points
    EXPECT_EQ(a[i].after_cells, b[i].after_cells);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_LT(a[i].worker, 4u);
    EXPECT_GE(a[i].after_cells, 1u);
    EXPECT_LE(a[i].after_cells, 3u);
  }
  std::set<std::size_t> victims;
  for (const auto& kill : a) victims.insert(kill.worker);
  EXPECT_EQ(victims.size(), a.size());  // distinct workers
  // A different seed picks different points (for this seed pair).
  const auto c = dist::derive_chaos(43, 2, 4, 3);
  EXPECT_TRUE(a[0].worker != c[0].worker || a[0].after_cells != c[0].after_cells ||
              a[1].worker != c[1].worker || a[1].after_cells != c[1].after_cells);
}

TEST(Protocol, LeaseEventsRoundTripAndTolerateTornTails) {
  dist::LeaseEvent event;
  event.seq = 12;
  event.kind = "reclaim";
  event.worker = 1;
  event.stripe = 3;
  event.attempt = 0;
  event.detail = "deadline";
  const std::string line = dist::encode_lease_event(event);
  const auto back = dist::parse_lease_event(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 12u);
  EXPECT_EQ(back->kind, "reclaim");
  EXPECT_EQ(back->worker, 1u);
  EXPECT_EQ(back->stripe, 3u);
  EXPECT_EQ(back->attempt, 0u);
  EXPECT_EQ(back->detail, "deadline");

  dist::LeaseEvent retry;
  retry.seq = 13;
  retry.kind = "retry";
  retry.stripe = 3;
  retry.attempt = 1;
  retry.backoff_ms = 250;
  const auto retry_back = dist::parse_lease_event(dist::encode_lease_event(retry));
  ASSERT_TRUE(retry_back.has_value());
  EXPECT_EQ(retry_back->backoff_ms, 250);
  EXPECT_EQ(retry_back->worker, dist::LeaseEvent::npos);  // absent field

  // A log tail torn by a coordinator kill is not an event -- nullopt,
  // not a throw (mirrors scan_records' partial-tail tolerance).
  EXPECT_FALSE(dist::parse_lease_event(line.substr(0, line.size() / 2)).has_value());
  EXPECT_FALSE(dist::parse_lease_event("").has_value());
  EXPECT_FALSE(dist::parse_lease_event("not json").has_value());
}

}  // namespace
