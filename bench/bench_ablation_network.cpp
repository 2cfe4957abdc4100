// Ablation: the paper's null-network trick vs realistic links.
//
// "This is reproduced by setting the network parameters bandwidth to a
// very high value and the latency to a very low value.  This simulates
// no costs for communication." (paper Section III-B)  This bench shows
// what the BOLD experiment would have measured had the network NOT been
// nulled out: fine-grained techniques absorb the per-message cost once
// per chunk.

#include <cstdlib>
#include <iostream>

#include "mw/metrics.hpp"
#include "mw/simulation.hpp"
#include "pool/executor.hpp"
#include "stats/summary.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "workload/task_times.hpp"

namespace {

double mean_wasted(dls::Kind kind, double latency, double bandwidth, std::size_t runs,
                   unsigned threads) {
  std::vector<double> values(runs);
  pool::Executor::shared().parallel_for(
      runs,
      [&](std::size_t i) {
        mw::Config cfg;
        cfg.technique = kind;
        cfg.workers = 8;
        cfg.tasks = 8192;
        cfg.params.h = 0.5;
        cfg.params.mu = 1.0;
        cfg.params.sigma = 1.0;
        cfg.workload = workload::exponential(1.0);
        cfg.latency = latency;
        cfg.bandwidth = bandwidth;
        cfg.seed = 777 + 97 * i;
        values[i] = mw::compute_metrics(mw::run_simulation(cfg), cfg).avg_wasted_time;
      },
      threads);
  return stats::summarize(values).mean;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("runs", "100", "runs per cell");
  flags.define("threads", "0", "worker threads");
  flags.define("csv", "false", "emit CSV");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const auto runs = static_cast<std::size_t>(flags.get_int("runs"));
  const auto threads = static_cast<unsigned>(flags.get_int("threads"));

  struct Network {
    const char* label;
    double latency;
    double bandwidth;
  };
  const Network networks[] = {
      {"null (paper III-B)", 1e-12, 1e21},
      {"cluster (50us, 1GB/s)", 50e-6, 1e9},
      {"LAN (0.5ms, 125MB/s)", 0.5e-3, 1.25e8},
      {"WAN-ish (5ms, 12.5MB/s)", 5e-3, 1.25e7},
      {"satellite (150ms, 1MB/s)", 0.15, 1e6},
  };

  std::cout << "=== Ablation: network cost in the BOLD experiment (n = 8192, p = 8) ===\n\n";
  std::vector<std::string> header = {"technique"};
  for (const Network& net : networks) header.emplace_back(net.label);
  support::Table table(std::move(header));
  for (const dls::Kind kind :
       {dls::Kind::kStatic, dls::Kind::kSS, dls::Kind::kGSS, dls::Kind::kFAC2,
        dls::Kind::kBOLD}) {
    std::vector<std::string> row = {dls::to_string(kind)};
    for (const Network& net : networks) {
      row.push_back(support::fmt(mean_wasted(kind, net.latency, net.bandwidth, runs, threads), 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << (flags.get_bool("csv") ? table.to_csv() : table.to_ascii());
  std::cout << "\nexpected shape: SS degrades fastest as the network slows (one round\n"
               "trip per task); STAT is nearly network-oblivious; BOLD/FAC2 sit between.\n";
  return EXIT_SUCCESS;
}
