// Golden pins on chunk counts that sit on an exact arithmetic tie, so a
// build whose floating point differs (an FMA-contracted a*b+c, a
// different rounding of a quotient) fails here instead of moving a
// figure silently.

#include <gtest/gtest.h>

#include "chunk_sizes.hpp"
#include "dls/technique.hpp"

namespace {

TEST(CoreGolden, FacOnTheFigure8TieKeeps112Chunks) {
  // `dls_chunks --technique FAC --tasks 524288 --pes 8`, with its
  // default mu = sigma = 1 and h = 0.5.  With 32 tasks remaining FAC's
  // x is exactly 4, so R / (x p) is exactly 1 and ceil gives 1; a build
  // that contracts x's computation into an FMA rounds it above 1, gets
  // 2, and ends with 104 chunks.
  dls::Params params;
  params.n = 524288;
  params.p = 8;
  params.h = 0.5;
  params.mu = 1.0;
  params.sigma = 1.0;
  const auto technique = dls::make_technique(dls::Kind::kFAC, params);
  EXPECT_EQ(core_test::chunk_sizes(*technique).size(), 112u);
}

}  // namespace
