#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bbn/machine_model.hpp"
#include "exec/backend.hpp"
#include "hagerup/simulator.hpp"
#include "workload/task_times.hpp"

namespace {

using dls::Kind;

hagerup::Config base_config(Kind kind, std::size_t pes, std::size_t tasks,
                            double task_seconds = 110e-6) {
  hagerup::Config cfg;
  cfg.technique = kind;
  cfg.pes = pes;
  cfg.tasks = tasks;
  cfg.workload = workload::constant(task_seconds);
  return cfg;
}

/// One run of `cfg` on the machine model, with its Tzen-Ni degrees.
struct MachineRun {
  hagerup::RunResult result;
  bbn::TzenNi degrees;
};

MachineRun run_on_machine(const hagerup::Config& cfg) {
  MachineRun out{hagerup::run(bbn::on_machine(cfg)), {}};
  out.degrees = bbn::tzen_ni(out.result);
  return out;
}

TEST(BbnModel, TzenNiIdentityHolds) {
  // r + Theta + Lambda = P exactly, by equations (11)-(13) with
  // sum(X+O+W) = P * T.
  for (Kind kind : {Kind::kSS, Kind::kCSS, Kind::kGSS, Kind::kTSS}) {
    const bbn::TzenNi r = run_on_machine(base_config(kind, 16, 10000)).degrees;
    EXPECT_NEAR(r.speedup + r.overhead_degree + r.imbalance_degree, 16.0, 1e-9)
        << dls::to_string(kind);
  }
}

TEST(BbnModel, SpeedupBoundedByPes) {
  for (std::size_t p : {2u, 8u, 32u, 72u}) {
    const hagerup::Config cfg = base_config(Kind::kTSS, p, 100000);
    EXPECT_LE(run_on_machine(cfg).degrees.speedup, static_cast<double>(p) + 1e-9);
  }
}

TEST(BbnModel, DispatchSerializationCapsSelfScheduling) {
  // SS throughput is capped by the serialized atomic fetch: speedup
  // saturates well below linear for short tasks (paper Figure 3a).
  const bbn::TzenNi r = run_on_machine(base_config(Kind::kSS, 72, 100000)).degrees;
  EXPECT_LT(r.speedup, 30.0);
  // And the saturation is dispatch overhead, not imbalance.
  EXPECT_GT(r.overhead_degree, r.imbalance_degree);
}

TEST(BbnModel, LongTasksAmortizeDispatchCosts) {
  // Experiment 2's 2 ms tasks: SS recovers most of the lost speedup.
  const bbn::TzenNi short_tasks =
      run_on_machine(base_config(Kind::kSS, 72, 100000, 110e-6)).degrees;
  const bbn::TzenNi long_tasks = run_on_machine(base_config(Kind::kSS, 72, 10000, 2e-3)).degrees;
  EXPECT_GT(long_tasks.speedup, short_tasks.speedup * 1.5);
}

TEST(BbnModel, GssLockIsCostlierThanAtomicDispatch) {
  const bbn::MachineModel machine;
  EXPECT_GT(machine.dispatch_hold(Kind::kGSS, 72), machine.dispatch_hold(Kind::kSS, 72) * 3.0);
}

TEST(BbnModel, GssOneDegradesRelativeToGss80) {
  // The original publication's key contrast (paper Section IV-A): the
  // lock-based chunk calculation hurts GSS(1) while GSS(80) stays close
  // to CSS/TSS.
  hagerup::Config gss1 = base_config(Kind::kGSS, 72, 100000);
  gss1.params.gss_min_chunk = 1;
  hagerup::Config gss80 = base_config(Kind::kGSS, 72, 100000);
  gss80.params.gss_min_chunk = 80;
  const double s1 = run_on_machine(gss1).degrees.speedup;
  const double s80 = run_on_machine(gss80).degrees.speedup;
  EXPECT_LT(s1, s80);
}

TEST(BbnModel, CssAndTssStayNearLinear) {
  for (Kind kind : {Kind::kCSS, Kind::kTSS}) {
    const hagerup::Config cfg = base_config(kind, 72, 100000);
    EXPECT_GT(run_on_machine(cfg).degrees.speedup, 72.0 * 0.85) << dls::to_string(kind);
  }
}

TEST(BbnModel, RemoteReferenceInflationAppliedToWork) {
  const bbn::MachineModel machine;
  const hagerup::RunResult r = run_on_machine(base_config(Kind::kCSS, 1, 1000)).result;
  const double raw_work = 1000.0 * 110e-6;
  EXPECT_NEAR(r.executed_work, raw_work * machine.inflation(), 1e-9);
  EXPECT_GT(machine.inflation(), 1.0);
}

TEST(BbnModel, InflationFormula) {
  bbn::MachineModel machine;
  machine.remote_ref_ratio = 0.05;
  machine.remote_penalty = 3.0;
  EXPECT_DOUBLE_EQ(machine.inflation(), 1.1);
  machine.remote_ref_ratio = 0.0;
  EXPECT_DOUBLE_EQ(machine.inflation(), 1.0);
}

TEST(BbnModel, DispatchCostGrowsWithPes) {
  const bbn::MachineModel machine;
  EXPECT_GT(machine.dispatch_hold(Kind::kSS, 72), machine.dispatch_hold(Kind::kSS, 2));
  EXPECT_GT(machine.dispatch_hold(Kind::kGSS, 72), machine.dispatch_hold(Kind::kGSS, 2));
}

TEST(BbnModel, TaskConservation) {
  for (Kind kind : {Kind::kSS, Kind::kCSS, Kind::kGSS, Kind::kTSS}) {
    const hagerup::RunResult r = run_on_machine(base_config(kind, 16, 9999)).result;
    double per_pe_work = 0.0;
    for (double x : r.compute_time) per_pe_work += x;
    EXPECT_NEAR(per_pe_work, r.executed_work, 1e-9) << dls::to_string(kind);
  }
}

TEST(BbnModel, ValidatesConfig) {
  hagerup::Config cfg = base_config(Kind::kSS, 2, 10);
  cfg.pes = 0;
  EXPECT_THROW((void)run_on_machine(cfg), std::invalid_argument);
  cfg = base_config(Kind::kSS, 2, 10);
  cfg.workload = nullptr;
  EXPECT_THROW((void)run_on_machine(cfg), std::invalid_argument);
}

// Golden pins: exact values recorded from the machine model's own event
// loop (a std::priority_queue of per-PE free events) before it became
// a machine model applied to hagerup::run.  They must hold bit for bit:
// they freeze the serialized dispatch (the hold starts at max(pop,
// dispatcher free)), the inflation applied once per chunk, the
// dispatch-order summation of the executed work and the Tzen-Ni
// formulas.  No technique reads Request::now, so the time next_chunk
// runs at shows only in the chunk log: its digest pins every chunk's
// issue time at the dispatch end.  Do not regenerate these pins to
// make a change pass.

enum Workload { kFigure3, kFigure4 };  // 100000 x 110 us, 10000 x 2 ms

struct CellPin {
  Workload workload;
  Kind kind;
  std::size_t gss_min;
  std::size_t pes;
  double speedup;
  double makespan;
  std::size_t chunks;
  double overhead_degree;
  double imbalance_degree;
  std::uint64_t chunk_log_digest;  ///< FNV-1a over (pe, first, size, issued_at, work_seconds)
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t chunk_log_digest(const std::vector<hagerup::ChunkLogEntry>& log) {
  std::uint64_t h = 14695981039346656037ull;
  for (const hagerup::ChunkLogEntry& e : log) {
    h = fnv1a(h, e.pe);
    h = fnv1a(h, e.first);
    h = fnv1a(h, e.size);
    h = fnv1a(h, bits(e.issued_at));
    h = fnv1a(h, bits(e.work_seconds));
  }
  return h;
}

TEST(BbnModel, GoldenFigure3And4Cells) {
  const CellPin pins[] = {
    {kFigure3, Kind::kSS, 1, 2, 0x1.f93c4484739e7p+0, 0x1.88625b69ddb66p+2, 100000,
     0x1.b0edc32be39e6p-6, 0x1.1bb736dfb2efdp-22, 0xb350a0a3bd0a0824ull},
    {kFigure3, Kind::kSS, 1, 24, 0x1.76d3b2d457867p+4, 0x1.087358923d5b9p-1, 100000,
     0x1.244f5c5d109d6p-1, 0x1.3a4918108a087p-9, 0xa11d29662ccfdb09ull},
    {kFigure3, Kind::kSS, 1, 72, 0x1.4c681e7e0531ap+4, 0x1.2a32d412bc452p-1, 100000,
     0x1.9997a1981f1cdp+5, 0x1.a27946f3eea8bp-6, 0x50fb0732d5c1c2bfull},
    {kFigure3, Kind::kCSS, 1, 2, 0x1.ffffe50ba951p+0, 0x1.8333479596454p+2, 2,
     0x1.676483c883e03p-20, 0x1.1f839c9f9a354p-22, 0xf22441e18aeae8f1ull},
    {kFigure3, Kind::kCSS, 1, 24, 0x1.7fea61e691fb8p+4, 0x1.0230ab189d028p-1, 24,
     0x1.ef2df0eee9927p-10, 0x1.bc2c35491bd91p-9, 0x42d8efb5ea5973b3ull},
    {kFigure3, Kind::kCSS, 1, 72, 0x1.1f42c039bdedap+6, 0x1.591041ec897dap-3, 72,
     0x1.7e0335c656546p-4, 0x1.76fbe341f33d4p-4, 0xbf1a7bd368233915ull},
    {kFigure3, Kind::kGSS, 1, 2, 0x1.fffa13bdb021fp+0, 0x1.8337adec36fe1p+2, 17,
     0x1.41aa10a052f8bp-14, 0x1.cb341ab9b5905p-17, 0x22824df5e1df6c58ull},
    {kFigure3, Kind::kGSS, 1, 24, 0x1.7c1c6fc3c8066p+4, 0x1.04c6385e155dep-1, 210,
     0x1.b0f82ee36114bp-3, 0x1.033fbce26ff1p-5, 0xeb3781aec64f11feull},
    {kFigure3, Kind::kGSS, 1, 72, 0x1.b7fc84bcea2abp+5, 0x1.c292ecd72e4eap-3, 559,
     0x1.edca82424ecp+3, 0x1.921b565044e65p+0, 0xbf6bcacfe9bbdebfull},
    {kFigure3, Kind::kTSS, 1, 2, 0x1.fffd3cfca9dc9p+0, 0x1.833549e3ceea3p+2, 7,
     0x1.6762a66c4f43fp-19, 0x1.4b0b80aafcc1fp-15, 0x6361b520e09eb85bull},
    {kFigure3, Kind::kTSS, 1, 24, 0x1.7f8f92f555a63p+4, 0x1.026dcb8a82786p-1, 93,
     0x1.2c0a293f6985p-9, 0x1.9c32e5817abap-6, 0xf1b2ca14d03a5734ull},
    {kFigure3, Kind::kTSS, 1, 72, 0x1.1e6d95194009bp+6, 0x1.5a11107395a23p-3, 275,
     0x1.a47ec49f36e7ap-4, 0x1.294b3598288a1p-2, 0x13b380b8baf9b1dfull},
    {kFigure3, Kind::kGSS, 80, 2, 0x1.fff9775a758a8p+0, 0x1.83382433bbf7dp+2, 12,
     0x1.e27e858e89f2p-15, 0x1.61d43fac43ad1p-15, 0x0274339385fe78c9ull},
    {kFigure3, Kind::kGSS, 80, 24, 0x1.7c069f855ac27p+4, 0x1.04d530489d25bp-1, 117,
     0x1.8eb957fb70668p-5, 0x1.9901e753c299ep-3, 0xe7798c85af382f3aull},
    {kFigure3, Kind::kGSS, 80, 72, 0x1.0a4e90b591442p+6, 0x1.7436d3d1a3c9ep-3, 276,
     0x1.c2ccad964ba68p+1, 0x1.e6c2776f176a5p+0, 0x7461e44d8b20aa8aull},
    {kFigure4, Kind::kSS, 1, 2, 0x1.ff9f840c6d484p+0, 0x1.604261b9d9907p+3, 10000,
     0x1.81e5ee058093p-10, 0x1.3c087072d2429p-23, 0x20d1d77203303ffcull},
    {kFigure4, Kind::kSS, 1, 24, 0x1.7f294e9f4c71fp+4, 0x1.d65c4f613c2e4p-1, 10000,
     0x1.0e07ec07c4e7ap-5, 0x1.3eb5aabdd1374p-6, 0x7a23a166cd3164dcull},
    {kFigure4, Kind::kSS, 1, 72, 0x1.1ea98a10295fbp+6, 0x1.3a59590cb69bcp-2, 10000,
     0x1.ea50b1668c734p-3, 0x1.85365c8cbb7c3p-4, 0xea9041872c55b269ull},
    {kFigure4, Kind::kCSS, 1, 2, 0x1.fffff12ccff8ep+0, 0x1.60000a313150dp+3, 2,
     0x1.8b5500bd115afp-21, 0x1.3c440099dabcp-23, 0x1451a5cbf1d56c1dull},
    {kFigure4, Kind::kCSS, 1, 24, 0x1.7fa9dd8cf5651p+4, 0x1.d5beb3847c519p-1, 24,
     0x1.102b7fdb79db6p-10, 0x1.4787142cb4211p-6, 0xa5f590e0e2f1ebdeull},
    {kFigure4, Kind::kCSS, 1, 72, 0x1.1f6040edab7c9p+6, 0x1.39917be8d99ep-2, 72,
     0x1.a461e37a05c34p-5, 0x1.accb57950acd8p-4, 0x9462522f7da00dedull},
    {kFigure4, Kind::kGSS, 1, 2, 0x1.fffbda7e4d87ap+0, 0x1.6002d9cf13bffp+3, 14,
     0x1.2cc29d3ec1eb7p-15, 0x1.cbfc77fa9714dp-16, 0xb08ffc226ffb68e8ull},
    {kFigure4, Kind::kGSS, 1, 24, 0x1.7f1b94875e129p+4, 0x1.d66d29cf06637p-1, 156,
     0x1.dadf0ae75e35ep-6, 0x1.b6ced7a054777p-6, 0x1f5e046a0f519155ull},
    {kFigure4, Kind::kGSS, 1, 72, 0x1.0adfd4f88eb59p+6, 0x1.51a8339050458p-2, 395,
     0x1.0ef03db8ac45ap+2, 0x1.0c49caf9a12d8p+0, 0x7998ce270600b615ull},
    {kFigure4, Kind::kTSS, 1, 2, 0x1.ffe5b6b26266dp+0, 0x1.60121352edfdbp+3, 7,
     0x1.8b40c04319ce6p-20, 0x1.a309991951293p-12, 0x29c011cfc86b2e52ull},
    {kFigure4, Kind::kTSS, 1, 24, 0x1.7c050f1646001p+4, 0x1.da3fbfde7ccep-1, 88,
     0x1.42d61e4be5b0fp-10, 0x1.faf2c8a068158p-3, 0x807724cedcd62c2bull},
    {kFigure4, Kind::kTSS, 1, 72, 0x1.1d61442b4ec47p+6, 0x1.3bc2f1acab199p-2, 275,
     0x1.c1010d9da7f82p-5, 0x1.334dd97ec34e6p-1, 0xe9b9d62ce726bdaeull},
    {kFigure4, Kind::kGSS, 80, 2, 0x1.fffd831684be2p+0, 0x1.6001b5e2a56d4p+3, 8,
     0x1.853959927d096p-16, 0x1.ef60435e8ff85p-17, 0x156cc4bd479bed43ull},
    {kFigure4, Kind::kGSS, 80, 24, 0x1.59792b5f946bbp+4, 0x1.04d61b2a27f1fp+0, 63,
     0x1.54e33c99b9e86p-6, 0x1.318cde8a2928dp+1, 0x0324381f17016640ull},
    {kFigure4, Kind::kGSS, 80, 72, 0x1.d60048ce017cap+5, 0x1.7f745465b2e2ap-2, 112,
     0x1.fe2f732f96794p-1, 0x1.881be59500a0cp+3, 0x4b6eb84c552c38deull},
  };
  for (const CellPin& pin : pins) {
    hagerup::Config cfg = pin.workload == kFigure3 ? base_config(pin.kind, pin.pes, 100000, 110e-6)
                                                   : base_config(pin.kind, pin.pes, 10000, 2e-3);
    cfg.params.gss_min_chunk = pin.gss_min;
    cfg.record_chunk_log = true;
    SCOPED_TRACE(std::string(pin.workload == kFigure3 ? "Figure 3 " : "Figure 4 ") +
                 dls::to_string(pin.kind) + "(" + std::to_string(pin.gss_min) +
                 ") p=" + std::to_string(pin.pes));
    const MachineRun run = run_on_machine(cfg);
    EXPECT_EQ(run.degrees.speedup, pin.speedup);
    EXPECT_EQ(run.result.makespan, pin.makespan);
    EXPECT_EQ(run.result.chunk_count, pin.chunks);
    EXPECT_EQ(run.degrees.overhead_degree, pin.overhead_degree);
    EXPECT_EQ(run.degrees.imbalance_degree, pin.imbalance_degree);
    EXPECT_EQ(chunk_log_digest(run.result.chunk_log), pin.chunk_log_digest);
  }
}

TEST(BbnModel, GoldenBackendReplicas) {
  // Eight replicas on one backend instance, so its reused run state
  // must not leak from one replica into the next.  h = 0.5 adds no
  // term to bbn's wasted time (hagerup's analytic accounting would add
  // h * chunks / P = 5 here).
  struct ReplicaPin {
    double makespan;
    double avg_wasted_time;
    double speedup;
    double chunks;
  };
  const ReplicaPin pins[] = {
    {0x1.13bb085ffd2ecp+9, 0x1.9dac8404f37ap+1, 0x1.fcffdaec9ccd8p+2, 0x1.4p+6},
    {0x1.1aac30fd1751dp+9, 0x1.2045b6069efcp+0, 0x1.fefaedbed16e6p+2, 0x1.4p+6},
    {0x1.16b26f311f9b4p+9, 0x1.2a2a60c73118p-1, 0x1.ff770ef942303p+2, 0x1.4p+6},
    {0x1.1ab1d1c8c24f3p+9, 0x1.10312d3544acp+2, 0x1.fc260b06d0437p+2, 0x1.4p+6},
    {0x1.171caa6efa3f5p+9, 0x1.463aadd05c38p+0, 0x1.fed4c8c9572a5p+2, 0x1.4p+6},
    {0x1.212f2aec3ff6dp+9, 0x1.cde17019d0b8p+0, 0x1.fe671ee9a8ca3p+2, 0x1.4p+6},
    {0x1.1951800ba4cefp+9, 0x1.7831123ed79p+0, 0x1.fea9aa48fa137p+2, 0x1.4p+6},
    {0x1.1a0e269d29b43p+9, 0x1.2a25e2b60b6ep+1, 0x1.fde2c9a9ece27p+2, 0x1.4p+6},
  };
  const auto backend = exec::make_backend("bbn");
  mw::Config cfg;
  cfg.technique = Kind::kFAC2;
  cfg.tasks = 4096;
  cfg.workers = 8;
  cfg.workload = workload::from_spec("exponential:1");
  cfg.params.h = 0.5;
  for (std::size_t r = 0; r < std::size(pins); ++r) {
    SCOPED_TRACE("replica " + std::to_string(r));
    cfg.seed = 100 + r;
    const exec::Measured m = backend->measure(cfg);
    EXPECT_EQ(m.makespan, pins[r].makespan);
    EXPECT_EQ(m.avg_wasted_time, pins[r].avg_wasted_time);
    EXPECT_EQ(m.speedup, pins[r].speedup);
    EXPECT_EQ(m.chunks, pins[r].chunks);
  }
}

}  // namespace
