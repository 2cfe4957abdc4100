#include "check/runner.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <ostream>

#include "exec/backend.hpp"
#include "pool/executor.hpp"
#include "workload/task_times.hpp"

namespace check {

const exec::BackendOptions kRuntimeFuzzOptions{.runtime_task_cap = 2048,
                                               .runtime_max_threads = 8};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A scenario whose execution itself throws is reported as a violation
/// of the implicit "runs at all" invariant.
std::vector<Failure> guarded_check(const Scenario& scenario, bool expensive,
                                   bool check_runtime) {
  try {
    return check_scenario(scenario, expensive, check_runtime);
  } catch (const std::exception& e) {
    return {Failure{"runs", std::string("backend threw: ") + e.what()}};
  }
}

/// Candidate shrinking transformations, most aggressive first.  Each
/// returns false when it cannot simplify the scenario further.
using Transform = bool (*)(Scenario&);

bool drop_timesteps(Scenario& s) {
  if (s.config.timesteps == 1) return false;
  s.config.timesteps = 1;
  return true;
}

bool halve_tasks(Scenario& s) {
  if (s.config.tasks <= 1) return false;
  s.config.tasks /= 2;
  return true;
}

bool halve_workers(Scenario& s) {
  mw::Config& cfg = s.config;
  if (cfg.workers <= 1) return false;
  cfg.workers /= 2;
  auto shrink = [&](auto& v) {
    if (!v.empty()) v.resize(cfg.workers);
  };
  shrink(cfg.worker_speed_factors);
  shrink(cfg.worker_speed_profiles);
  shrink(cfg.worker_failure_times);
  shrink(cfg.params.weights);
  // Keep the at-least-one-survivor contract after truncation.
  if (!cfg.worker_failure_times.empty()) cfg.worker_failure_times.front() = kInf;
  return true;
}

bool drop_failures(Scenario& s) {
  if (s.config.worker_failure_times.empty()) return false;
  s.config.worker_failure_times.clear();
  return true;
}

bool drop_profiles(Scenario& s) {
  if (s.config.worker_speed_profiles.empty()) return false;
  s.config.worker_speed_profiles.clear();
  return true;
}

bool drop_factors(Scenario& s) {
  if (s.config.worker_speed_factors.empty()) return false;
  s.config.worker_speed_factors.clear();
  return true;
}

bool drop_overhead(Scenario& s) {
  if (s.config.params.h == 0.0 && s.config.overhead_mode == mw::OverheadMode::kAnalytic) {
    return false;
  }
  s.config.params.h = 0.0;
  s.config.overhead_mode = mw::OverheadMode::kAnalytic;
  return true;
}

bool null_the_network(Scenario& s) {
  if (s.null_network) return false;
  s.config.latency = 0.0;
  s.config.bandwidth = kInf;
  return true;
}

bool simplify_workload(Scenario& s) {
  if (s.config.workload && s.config.workload->stddev() == 0.0 &&
      s.config.workload->mean() == 1.0) {
    return false;
  }
  s.config.workload = workload::from_spec("constant:1");
  s.config.params.mu = 1.0;
  s.config.params.sigma = 0.0;
  return true;
}

bool drop_rand48(Scenario& s) {
  if (!s.config.use_rand48) return false;
  s.config.use_rand48 = false;
  return true;
}

constexpr Transform kTransforms[] = {
    drop_timesteps, halve_tasks,      halve_workers, drop_failures, drop_profiles,
    drop_factors,   drop_overhead,    null_the_network, simplify_workload, drop_rand48,
};

}  // namespace

std::vector<Failure> check_scenario(const Scenario& scenario, bool expensive,
                                    bool check_runtime) {
  std::vector<Failure> failures;
  const exec::BackendRun mw_run = exec::make_backend("mw")->run(scenario.config);
  for (Failure& f : check_run(scenario, mw_run)) failures.push_back(std::move(f));

  if (scenario.hagerup_comparable()) {
    const exec::BackendRun hagerup_run = exec::make_backend("hagerup")->run(scenario.config);
    for (Failure& f : check_run(scenario, hagerup_run)) failures.push_back(std::move(f));
    if (auto violation = check_cross_backend(scenario, mw_run, hagerup_run)) {
      failures.push_back(Failure{"cross_backend", *violation});
    }
  }

  if (check_runtime) {
    const exec::BackendRun runtime_run =
        exec::make_backend("runtime", kRuntimeFuzzOptions)->run(scenario.config);
    for (Failure& f : check_run(scenario, runtime_run)) failures.push_back(std::move(f));
  }

  if (expensive) {
    if (auto violation = check_mw_determinism(scenario, mw_run)) {
      failures.push_back(Failure{"mw_determinism", *violation});
    }
    if (auto violation = check_batch_determinism(scenario)) {
      failures.push_back(Failure{"batch_determinism", *violation});
    }
    if (auto violation = check_worker_monotonicity(scenario)) {
      failures.push_back(Failure{"worker_monotonicity", *violation});
    }
  }
  return failures;
}

Scenario minimize_scenario(const Scenario& scenario,
                           const std::function<bool(const Scenario&)>& still_fails,
                           std::size_t budget) {
  Scenario best = scenario;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (const Transform& transform : kTransforms) {
      if (budget == 0) break;
      Scenario candidate = best;
      if (!transform(candidate)) continue;
      classify(candidate);
      --budget;
      bool fails = false;
      try {
        fails = still_fails(candidate);
      } catch (const std::exception&) {
        fails = true;  // crashing counts as still failing
      }
      if (fails) {
        best = std::move(candidate);
        progress = true;
      }
    }
  }
  return best;
}

CheckReport run_checks(const CheckOptions& options) {
  CheckReport report;
  report.scenarios = options.runs;
  std::vector<std::vector<Violation>> per_scenario(options.runs);

  pool::Executor::shared().parallel_for(
      options.runs,
      [&](std::size_t index) {
        const Scenario scenario = generate_scenario(options.seed, index, options.scenario);
        const bool expensive =
            options.expensive_stride != 0 && index % options.expensive_stride == 0;
        for (const Failure& failure :
             guarded_check(scenario, expensive, options.check_runtime)) {
          Violation violation;
          violation.scenario_index = index;
          violation.invariant = failure.invariant;
          violation.message = failure.message;
          Scenario reported = scenario;
          if (options.minimize) {
            const std::string& name = failure.invariant;
            reported = minimize_scenario(
                scenario,
                [&](const Scenario& candidate) {
                  for (const Failure& f :
                       guarded_check(candidate, expensive, options.check_runtime)) {
                    if (f.invariant == name) return true;
                  }
                  return false;
                },
                options.shrink_budget);
          }
          try {
            violation.experiment_text = to_experiment_text(reported);
          } catch (const std::exception& e) {
            violation.experiment_text = "# not expressible as an experiment file: ";
            violation.experiment_text += e.what();
          }
          per_scenario[index].push_back(std::move(violation));
        }
      },
      options.threads);

  for (std::vector<Violation>& violations : per_scenario) {
    for (Violation& violation : violations) report.violations.push_back(std::move(violation));
  }
  return report;
}

bool print_report(const CheckReport& report, std::ostream& out) {
  if (report.ok()) {
    out << "dls_check: " << report.scenarios << " scenarios, all invariants hold\n";
    return true;
  }
  out << "dls_check: " << report.violations.size() << " violation(s) across "
      << report.scenarios << " scenarios\n";
  for (const Violation& violation : report.violations) {
    out << "\n--- scenario " << violation.scenario_index << ": invariant '"
        << violation.invariant << "' violated\n"
        << "    " << violation.message << "\n"
        << "    minimized replayable experiment:\n";
    // Indent the experiment text so a report with several violations
    // stays scannable; the block still pastes cleanly into dls_sim.
    std::size_t start = 0;
    while (start < violation.experiment_text.size()) {
      const std::size_t end = violation.experiment_text.find('\n', start);
      const std::size_t stop = end == std::string::npos ? violation.experiment_text.size() : end;
      out << "      " << violation.experiment_text.substr(start, stop - start) << "\n";
      start = stop + 1;
    }
  }
  return false;
}

}  // namespace check
