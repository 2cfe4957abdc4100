#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "bbn/machine_model.hpp"
#include "hagerup/simulator.hpp"
#include "workload/random_source.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

hagerup::Config base_config(Kind kind, std::size_t pes, std::size_t tasks) {
  hagerup::Config cfg;
  cfg.technique = kind;
  cfg.pes = pes;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(1.0);
  cfg.params.mu = 1.0;
  cfg.params.sigma = 0.0;
  cfg.params.h = 0.5;
  return cfg;
}

TEST(HagerupSim, StatConstantWorkloadExactTimes) {
  // STAT, p = 2, n = 10, 1 s tasks, h = 0.5 inline: each worker pays one
  // allocation (0.5) then computes 5 s -> makespan 5.5, wasted 0.5 each.
  const hagerup::Config cfg = base_config(Kind::kStatic, 2, 10);
  const hagerup::RunResult r = hagerup::run(cfg);
  EXPECT_DOUBLE_EQ(r.makespan, 5.5);
  EXPECT_DOUBLE_EQ(r.avg_wasted_time, 0.5);
  EXPECT_EQ(r.chunk_count, 2u);
}

TEST(HagerupSim, SelfSchedulingOverheadDominates) {
  // SS: every task pays h on the worker's own timeline.  p = 2, n = 100:
  // each worker executes ~50 tasks at 1.5 s each -> makespan ~75,
  // wasted ~25 per worker.
  const hagerup::Config cfg = base_config(Kind::kSS, 2, 100);
  const hagerup::RunResult r = hagerup::run(cfg);
  EXPECT_NEAR(r.makespan, 75.0, 1.0);
  EXPECT_NEAR(r.avg_wasted_time, 25.0, 1.0);
  EXPECT_EQ(r.chunk_count, 100u);
}

TEST(HagerupSim, InlineAndPosthocOverheadAgreeForSS) {
  // The two accountings differ only by end effects (paper Section IV-B:
  // the discrepancy shrinks as n grows).
  hagerup::Config inline_cfg = base_config(Kind::kSS, 4, 10000);
  hagerup::Config posthoc_cfg = base_config(Kind::kSS, 4, 10000);
  posthoc_cfg.charge_overhead_inline = false;
  const double w_inline = hagerup::run(inline_cfg).avg_wasted_time;
  const double w_posthoc = hagerup::run(posthoc_cfg).avg_wasted_time;
  EXPECT_NEAR(w_inline, w_posthoc, w_inline * 0.01);
}

TEST(HagerupSim, DeterministicPerSeed) {
  hagerup::Config cfg = base_config(Kind::kFAC, 8, 1024);
  cfg.workload = workload::exponential(1.0);
  cfg.params.sigma = 1.0;
  cfg.seed = 99;
  const hagerup::RunResult a = hagerup::run(cfg);
  const hagerup::RunResult b = hagerup::run(cfg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.avg_wasted_time, b.avg_wasted_time);
  cfg.seed = 100;
  EXPECT_NE(hagerup::run(cfg).makespan, a.makespan);
}

TEST(HagerupSim, TaskConservation) {
  for (Kind kind : dls::bold_publication_kinds()) {
    hagerup::Config cfg = base_config(kind, 8, 1024);
    cfg.workload = workload::exponential(1.0);
    cfg.params.sigma = 1.0;
    const hagerup::RunResult r = hagerup::run(cfg);
    std::size_t chunks = 0;
    for (std::size_t c : r.chunks) chunks += c;
    EXPECT_EQ(chunks, r.chunk_count) << dls::to_string(kind);
    EXPECT_NEAR(r.total_work,
                [&r] {
                  double sum = 0.0;
                  for (double c : r.compute_time) sum += c;
                  return sum;
                }(),
                1e-6)
        << dls::to_string(kind);
  }
}

TEST(HagerupSim, TotalWorkIsTheLeftToRightSumOfTheTaskTimes) {
  // run() adds each task time to total_work as its chunk takes it;
  // that must equal, bit for bit, summing generate() from task 0 up.
  for (Kind kind : {Kind::kSS, Kind::kGSS, Kind::kFAC, Kind::kStatic}) {
    for (bool rand48 : {true, false}) {
      hagerup::Config cfg = base_config(kind, 8, 1000);
      cfg.workload = workload::exponential(1.0);
      cfg.params.sigma = 1.0;
      cfg.use_rand48 = rand48;
      cfg.seed = 7;
      const std::unique_ptr<workload::RandomSource> rng =
          rand48 ? std::unique_ptr<workload::RandomSource>(
                       std::make_unique<workload::Rand48Source>(7u))
                 : std::make_unique<workload::XoshiroSource>(7u);
      double sum = 0.0;
      for (double t : cfg.workload->generate(cfg.tasks, *rng)) sum += t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(hagerup::run(cfg).total_work),
                std::bit_cast<std::uint64_t>(sum))
          << dls::to_string(kind) << (rand48 ? ", rand48" : ", xoshiro");
    }
  }
}

TEST(HagerupSim, WastedTimeNonNegative) {
  for (Kind kind : dls::bold_publication_kinds()) {
    hagerup::Config cfg = base_config(kind, 64, 8192);
    cfg.workload = workload::exponential(1.0);
    cfg.params.sigma = 1.0;
    EXPECT_GE(hagerup::run(cfg).avg_wasted_time, 0.0) << dls::to_string(kind);
  }
}

TEST(HagerupSim, MorePesThanTasks) {
  const hagerup::Config cfg = base_config(Kind::kSS, 64, 10);
  const hagerup::RunResult r = hagerup::run(cfg);
  EXPECT_EQ(r.chunk_count, 10u);
  EXPECT_DOUBLE_EQ(r.makespan, 1.5);  // one 1 s task + 0.5 overhead
}

TEST(HagerupSim, Rand48MatchesPaperGeneratorFamily) {
  // use_rand48 must change the drawn workload relative to xoshiro.
  hagerup::Config cfg = base_config(Kind::kSS, 2, 100);
  cfg.workload = workload::exponential(1.0);
  cfg.params.sigma = 1.0;
  cfg.use_rand48 = true;
  const double a = hagerup::run(cfg).makespan;
  cfg.use_rand48 = false;
  const double b = hagerup::run(cfg).makespan;
  EXPECT_NE(a, b);
}

TEST(HagerupSim, ValidatesConfig) {
  hagerup::Config cfg = base_config(Kind::kSS, 2, 10);
  cfg.pes = 0;
  EXPECT_THROW((void)hagerup::run(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.tasks = 0;
  EXPECT_THROW((void)hagerup::run(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.workload = nullptr;
  EXPECT_THROW((void)hagerup::run(cfg), std::invalid_argument);
}

TEST(HagerupSim, ZeroMachineModelIsThePlainSimulator) {
  // A machine with no dispatch cost and no remote references is the
  // plain simulator with xoshiro task times and analytic overhead, bit
  // for bit: the hold adds +0.0 and the inflation multiplies by 1.0.
  const bbn::MachineModel zero{0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (Kind kind : {Kind::kSS, Kind::kGSS, Kind::kFAC2, Kind::kBOLD}) {
    hagerup::Config plain = base_config(kind, 8, 2048);
    plain.workload = workload::exponential(1.0);
    plain.params.sigma = 1.0;
    plain.use_rand48 = false;
    plain.charge_overhead_inline = false;
    plain.record_chunk_log = true;
    hagerup::Config on_zero = base_config(kind, 8, 2048);
    on_zero.workload = plain.workload;
    on_zero.params.sigma = 1.0;
    on_zero.record_chunk_log = true;
    on_zero = bbn::on_machine(on_zero, zero);
    EXPECT_EQ(on_zero.dispatch_hold, 0.0);
    EXPECT_EQ(on_zero.work_inflation, 1.0);

    const hagerup::RunResult a = hagerup::run(plain);
    const hagerup::RunResult b = hagerup::run(on_zero);
    SCOPED_TRACE(dls::to_string(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.avg_wasted_time, b.avg_wasted_time);
    EXPECT_EQ(a.compute_time, b.compute_time);
    ASSERT_EQ(a.chunk_log.size(), b.chunk_log.size());
    for (std::size_t i = 0; i < a.chunk_log.size(); ++i) {
      EXPECT_EQ(a.chunk_log[i].pe, b.chunk_log[i].pe);
      EXPECT_EQ(a.chunk_log[i].first, b.chunk_log[i].first);
      EXPECT_EQ(a.chunk_log[i].size, b.chunk_log[i].size);
      EXPECT_EQ(a.chunk_log[i].issued_at, b.chunk_log[i].issued_at);
      EXPECT_EQ(a.chunk_log[i].work_seconds, b.chunk_log[i].work_seconds);
    }
    // Without a hold no worker ever waits for the dispatcher.
    EXPECT_EQ(b.schedule_time, std::vector<double>(8, 0.0));
  }
}

TEST(HagerupSim, DispatchHoldSerializesEveryDispatch) {
  // With a hold at least the task time, SS's n chunk dispatches and P
  // retiring dispatches queue on the one dispatcher end to end.
  for (const std::size_t pes : {1u, 4u, 16u}) {
    hagerup::Config cfg = base_config(Kind::kSS, pes, 200);
    cfg.dispatch_hold = 1.5;
    const hagerup::RunResult r = hagerup::run(cfg);
    EXPECT_GE(r.makespan, static_cast<double>(200 + pes) * cfg.dispatch_hold) << pes;
    double waited = 0.0;
    for (double o : r.schedule_time) waited += o;
    EXPECT_GE(waited, static_cast<double>(200 + pes) * cfg.dispatch_hold) << pes;
  }
}

TEST(HagerupSim, BoldBeatsSelfSchedulingOnWastedTime) {
  // The headline qualitative result of the BOLD publication.
  hagerup::Config ss = base_config(Kind::kSS, 64, 8192);
  ss.workload = workload::exponential(1.0);
  ss.params.sigma = 1.0;
  hagerup::Config bold = base_config(Kind::kBOLD, 64, 8192);
  bold.workload = workload::exponential(1.0);
  bold.params.sigma = 1.0;
  EXPECT_LT(hagerup::run(bold).avg_wasted_time, hagerup::run(ss).avg_wasted_time);
}

}  // namespace
