// Seeded conformance fuzz target: a bounded run of the full dls_check
// pipeline (scenario generation -> all backends -> invariant catalog),
// sized to a few seconds so it rides along in every ctest run and in
// the sanitizer CI job.

#include <gtest/gtest.h>

#include "check/runner.hpp"

namespace {

TEST(CheckFuzz, BoundedScenarioSweepHoldsAllInvariants) {
  check::CheckOptions options;
  options.runs = 150;
  options.seed = 20260730;  // fixed: failures must reproduce byte-for-byte
  options.scenario.max_tasks = 2048;
  options.scenario.max_workers = 12;
  options.expensive_stride = 10;
  const check::CheckReport report = check::run_checks(options);
  EXPECT_EQ(report.scenarios, 150u);
  for (const check::Violation& violation : report.violations) {
    ADD_FAILURE() << "scenario " << violation.scenario_index << " violated '"
                  << violation.invariant << "': " << violation.message
                  << "\nreplay with dls_sweep -:\n"
                  << violation.experiment_text;
  }
}

TEST(CheckFuzz, ReportsAreDeterministic) {
  check::CheckOptions options;
  options.runs = 40;
  options.seed = 4242;
  options.scenario.max_tasks = 512;
  options.expensive_stride = 0;  // keep it cheap: structural checks only
  options.check_runtime = false;
  const check::CheckReport a = check::run_checks(options);
  const check::CheckReport b = check::run_checks(options);
  EXPECT_EQ(a.scenarios, b.scenarios);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant);
    EXPECT_EQ(a.violations[i].experiment_text, b.violations[i].experiment_text);
  }
}

}  // namespace
