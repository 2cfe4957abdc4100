#pragma once

// The floating-point environment every record is computed in.  The
// build force-includes this header into every translation unit and
// compiles it with -ffp-contract=off (CMakeLists.txt), so a user's
// CMAKE_CXX_FLAGS cannot fuse a*b+c into an FMA and move a record byte.
// -ffast-math goes further than contraction: it licenses reassociation
// and lets GCC vectorize the samplers' log loops through libmvec, whose
// results differ from libm's in the last bits.  It is refused.

#if defined(__FAST_MATH__)
#error "-ffast-math changes record bytes (reassociation, vector libm); build without it"
#endif
