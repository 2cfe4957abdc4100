// Example: the DLS techniques executing a REAL irregular loop on real
// threads via runtime::DlsLoopExecutor -- the deployment form of the
// verified techniques (paper Section I: DLS "applied in real scientific
// applications ... Monte Carlo simulations, radar signal processing,
// N-body simulations").
//
// Workload: a Mandelbrot-set escape-time computation, row by row.  Rows
// crossing the set's boundary cost far more than rows of fast-escaping
// points -- a classic algorithmic load imbalance.
//
// Run: ./build/example_native_loop [--size 600] [--threads 8]

#include <atomic>
#include <complex>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "runtime/dls_loop.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace {

/// Escape iterations for one pixel.
int mandel(double re, double im, int max_iter) {
  std::complex<double> c(re, im), z(0.0, 0.0);
  int it = 0;
  while (it < max_iter && std::norm(z) <= 4.0) {
    z = z * z + c;
    ++it;
  }
  return it;
}

}  // namespace

int main(int argc, char** argv) {
  support::Flags flags;
  flags.define("size", "600", "image width/height in pixels");
  flags.define("max-iter", "1500", "escape iteration bound");
  flags.define("threads", "8", "worker threads");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const auto size = static_cast<std::size_t>(flags.get_int("size"));
  const int max_iter = static_cast<int>(flags.get_int("max-iter"));
  const auto threads = static_cast<unsigned>(flags.get_int("threads"));

  std::cout << "Mandelbrot " << size << "x" << size << ", max " << max_iter
            << " iterations, " << threads << " threads; one task = one image row\n\n";

  std::vector<long> checksum_per_run;
  support::Table table({"technique", "wall [ms]", "chunks", "max/mean thread busy"});
  for (const dls::Kind kind : {dls::Kind::kStatic, dls::Kind::kSS, dls::Kind::kGSS,
                               dls::Kind::kTSS, dls::Kind::kFAC2, dls::Kind::kAF}) {
    std::atomic<long> checksum{0};
    dls::Params params;
    params.h = 1e-6;   // dispatch cost scale for FSC-style formulas
    params.mu = 1e-3;  // rough per-row cost guesses for FAC/TAP/BOLD
    params.sigma = 1e-3;
    const runtime::LoopStats stats = runtime::parallel_for_dls(
        kind, size,
        [&](std::size_t row) {
          const double im = -1.5 + 3.0 * static_cast<double>(row) / static_cast<double>(size);
          long row_sum = 0;
          for (std::size_t col = 0; col < size; ++col) {
            const double re =
                -2.25 + 3.0 * static_cast<double>(col) / static_cast<double>(size);
            row_sum += mandel(re, im, max_iter);
          }
          checksum.fetch_add(row_sum, std::memory_order_relaxed);
        },
        threads, params);

    double max_busy = 0.0, sum_busy = 0.0;
    for (double b : stats.busy_seconds_per_thread) {
      max_busy = std::max(max_busy, b);
      sum_busy += b;
    }
    const double mean_busy = sum_busy / static_cast<double>(threads);
    table.add_row({dls::to_string(kind), support::fmt(stats.wall_seconds * 1e3, 1),
                   std::to_string(stats.chunks),
                   support::fmt(mean_busy > 0 ? max_busy / mean_busy : 1.0, 2)});
    checksum_per_run.push_back(checksum.load());
  }
  table.print(std::cout);

  // All techniques must compute the same image.
  for (std::size_t i = 1; i < checksum_per_run.size(); ++i) {
    if (checksum_per_run[i] != checksum_per_run[0]) {
      std::cerr << "checksum mismatch between techniques!\n";
      return EXIT_FAILURE;
    }
  }
  std::cout << "\nall techniques produced identical results (checksum "
            << checksum_per_run[0] << ")\n"
            << "reading guide: STAT's contiguous row blocks straddle the set's bulk\n"
            << "unevenly (max/mean busy well above 1); the dynamic techniques flatten\n"
            << "it at a fraction of SS's dispatch count.\n";
  return EXIT_SUCCESS;
}
