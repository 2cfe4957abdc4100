// Property tests over the whole technique family: the invariants of
// DESIGN.md Section 6, swept over a (technique x n x p) grid with
// parameterized gtest.

#include <gtest/gtest.h>

#include <numeric>

#include "chunk_sizes.hpp"
#include "dls/technique.hpp"

namespace {

using dls::Kind;

struct GridCase {
  Kind kind;
  std::size_t p;
  std::size_t n;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  std::string name = dls::to_string(info.param.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_p" + std::to_string(info.param.p) + "_n" + std::to_string(info.param.n);
}

dls::Params make_params(const GridCase& c) {
  dls::Params params;
  params.p = c.p;
  params.n = c.n;
  params.mu = 1.0;
  params.sigma = 1.0;
  params.h = 0.5;
  return params;
}

std::vector<GridCase> grid() {
  std::vector<GridCase> cases;
  const std::size_t ps[] = {1, 2, 3, 8, 64};
  const std::size_t ns[] = {1, 2, 7, 100, 1024, 10000};
  for (Kind k : dls::all_kinds()) {
    for (std::size_t p : ps) {
      for (std::size_t n : ns) {
        cases.push_back({k, p, n});
      }
    }
  }
  return cases;
}

class TechniqueInvariants : public ::testing::TestWithParam<GridCase> {};

TEST_P(TechniqueInvariants, ChunksConserveTasksAndStayPositive) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const auto s = core_test::chunk_sizes(*tech);
  std::size_t sum = 0;
  for (std::size_t c : s) {
    ASSERT_GE(c, 1u);
    sum += c;
  }
  EXPECT_EQ(sum, GetParam().n);
  // Terminated: a further request yields nothing and state is final.
  EXPECT_EQ(tech->remaining(), 0u);
  EXPECT_EQ(tech->next_chunk(dls::Request{0, 1e9}), 0u);
}

TEST_P(TechniqueInvariants, BookkeepingIsConsistent) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const std::size_t n = GetParam().n;
  const std::size_t p = GetParam().p;
  double now = 0.0;
  std::size_t pe = 0;
  std::size_t allocated = 0;
  std::size_t issued = 0;
  for (;;) {
    const std::size_t c = tech->next_chunk(dls::Request{pe, now});
    if (c == 0) break;
    allocated += c;
    ++issued;
    EXPECT_EQ(tech->allocated(), allocated);
    EXPECT_EQ(tech->remaining(), n - allocated);
    EXPECT_EQ(tech->chunks_issued(), issued);
    EXPECT_EQ(tech->unfinished(), n);  // nothing reported complete yet
    now += 1.0;
    pe = (pe + 1) % p;
  }
  // Now report all completions; m must drain to 0.
  // (Completion order does not matter for the counters.)
  std::size_t completed = 0;
  const auto tech2 = dls::make_technique(GetParam().kind, make_params(GetParam()));
  for (const auto& rec : dls::chunk_sequence(*tech2)) {
    completed += rec.size;
  }
  EXPECT_EQ(completed, n);
  EXPECT_EQ(tech2->unfinished(), 0u);
}

TEST_P(TechniqueInvariants, ResetReproducesIdenticalSequence) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const auto first = core_test::chunk_sizes(*tech, 0.9);
  const auto second = core_test::chunk_sizes(*tech, 0.9);  // chunk_sequence resets
  EXPECT_EQ(first, second);
}

TEST_P(TechniqueInvariants, SequenceLengthIsBounded) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const auto s = core_test::chunk_sizes(*tech);
  EXPECT_LE(s.size(), GetParam().n);  // never more chunks than tasks
}

INSTANTIATE_TEST_SUITE_P(Grid, TechniqueInvariants, ::testing::ValuesIn(grid()), case_name);

// ------------------------------------------------------------------
// Monotone non-increase for the decreasing-chunk family under static
// conditions (constant feedback, round-robin requests).

class DecreasingFamily : public ::testing::TestWithParam<GridCase> {};

TEST_P(DecreasingFamily, ChunksNeverGrow) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const auto s = core_test::chunk_sizes(*tech);
  for (std::size_t i = 1; i < s.size(); ++i) {
    ASSERT_LE(s[i], s[i - 1]) << "at chunk " << i;
  }
}

std::vector<GridCase> decreasing_grid() {
  std::vector<GridCase> cases;
  for (Kind k : {Kind::kGSS, Kind::kTSS, Kind::kFAC, Kind::kFAC2, Kind::kTAP, Kind::kBOLD}) {
    for (std::size_t p : {2u, 8u, 64u}) {
      for (std::size_t n : {100u, 4096u, 100000u}) {
        cases.push_back({k, p, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Family, DecreasingFamily, ::testing::ValuesIn(decreasing_grid()),
                         case_name);

// ------------------------------------------------------------------
// The first chunk of every technique respects its design altitude:
// no technique may hand the entire loop to one PE when p > 1 and the
// workload is variable (sigma > 0, h > 0), except CSS configured so.

class FirstChunkAltitude : public ::testing::TestWithParam<GridCase> {};

TEST_P(FirstChunkAltitude, FirstChunkLeavesWorkForOthers) {
  const auto tech = dls::make_technique(GetParam().kind, make_params(GetParam()));
  const std::size_t first = tech->next_chunk(dls::Request{0, 0.0});
  EXPECT_LT(first, GetParam().n);
}

std::vector<GridCase> altitude_grid() {
  std::vector<GridCase> cases;
  for (Kind k : dls::all_kinds()) {
    if (k == Kind::kCSS) continue;  // CSS(k) may legitimately take all with huge k
    cases.push_back({k, 4, 1000});
    cases.push_back({k, 64, 100000});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Altitude, FirstChunkAltitude, ::testing::ValuesIn(altitude_grid()),
                         case_name);

}  // namespace
