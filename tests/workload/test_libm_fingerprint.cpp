// The libm the records were pinned against.  Records use log, log1p,
// exp, pow, cos and tgamma (src/workload/task_times.cpp, core/bold.cpp,
// core/static_like.cpp), and workload::log_batch returns log's bits only
// because this libm is within 0.519 ulp.  A different libm fails here,
// naming the function and input, before it fails a golden pin or a
// committed digest with a bare mismatch.
//
// The first 20 log inputs are generator inputs 1 - u where glibc 2.36's
// log is not correctly rounded (checked against Decimal.ln at 60
// digits): each is within 0.012 ulp of a rounding midpoint, so a
// correctly rounded log, or one with a different error, gives the other
// neighbour.  Regenerate the table only together with the pins it
// protects.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace {

struct Pinned {
  const char* fn;
  std::uint64_t x;
  std::uint64_t y;  // pow's exponent; unused otherwise
  std::uint64_t result;
};

constexpr Pinned kPinned[] = {
    // log at generator inputs where glibc is not correctly rounded.
    {"log", 0x3fd33f3d043c7644, 0, 0xbff33973f25a4f5f},
    {"log", 0x3fd82015a2e909f4, 0, 0xbfef3849029bab4c},
    {"log", 0x3fd87bb56d19ad1a, 0, 0xbfeebfa59cfdc82c},
    {"log", 0x3fdb1b32b1488b66, 0, 0xbfeb7de736c14a04},
    {"log", 0x3fdc4982b090bc70, 0, 0xbfea2091151b4640},
    {"log", 0x3fded5ef62dda5ba, 0, 0xbfe75de265375572},
    {"log", 0x3fe03d635a502815, 0, 0xbfe5b4657e914047},
    {"log", 0x3fe37de470bba076, 0, 0xbfdfba43ebfaf794},
    {"log", 0x3fe5651626533d44, 0, 0xbfd9c3f2e4228a5d},
    {"log", 0x3fe66a10217c08a0, 0, 0xbfd6c94cc4c06f2f},
    {"log", 0x3fe6ff0043c5342b, 0, 0xbfd52575b324592e},
    {"log", 0x3fe756a3402abb3b, 0, 0xbfd4335b806b6c7c},
    {"log", 0x3fe83ca4f9bae98f, 0, 0xbfd1c8751e01f56d},
    {"log", 0x3fea1c9332c3dedb, 0, 0xbfca078d09619db4},
    {"log", 0x3feadf1e2de5cbf5, 0, 0xbfc65b82599e1239},
    {"log", 0x3febdde96dd4debe, 0, 0xbfc1b3c29041b86d},
    {"log", 0x3fec9fd7fbc96daf, 0, 0xbfbc89bde314fd0a},
    {"log", 0x3fed3ea7b5fff438, 0, 0xbfb70c9894076fca},
    {"log", 0x3fed44d20f1823c8, 0, 0xbfb6d6a5dd6b63aa},
    {"log", 0x3fed776746210868, 0, 0xbfb51db611607204},
    // The remaining functions at the arguments their callers pass.
    {"log", 0x4000000000000000, 0, 0x3fe62e42fefa39ef},
    {"log", 0x3fe0000000000000, 0, 0xbfe62e42fefa39ef},
    {"log", 0x01a56e1fc2f8f359, 0, 0xc085963447f87fb5},
    {"log", 0x4010000000000000, 0, 0x3ff62e42fefa39ef},
    {"log", 0x4008000000000000, 0, 0x3ff193ea7aad030b},
    {"log1p", 0x3fd0000000000000, 0, 0x3fcc8ff7c79a9a22},
    {"log1p", 0x3ff0000000000000, 0, 0x3fe62e42fefa39ef},
    {"log1p", 0x3f847ae147ae147b, 0, 0x3f8460d6ccca3677},
    {"log1p", 0x3ddb7cdfd9d7bdbb, 0, 0x3ddb7cdfd9d1d693},
    {"exp", 0xbfe0000000000000, 0, 0x3fe368b2fc6f960a},
    {"exp", 0x3ff0000000000000, 0, 0x4005bf0a8b145769},
    {"exp", 0x3fd3333333333333, 0, 0x3ff599058c8c1a96},
    {"exp", 0xc028800000000000, 0, 0x3ed411fb0da07713},
    {"exp", 0x3f50624dd2f1a9fc, 0, 0x3ff0041919b7ee34},
    {"pow", 0x3fd3333333333333, 0x3fe5555555555555, 0x3fdcae5562aa4108},
    {"pow", 0x3fe6666666666666, 0x4000000000000000, 0x3fdf5c28f5c28f5b},
    {"pow", 0x4004000000000000, 0x3fd5555555555555, 0x3ff5b7209557b0ed},
    {"pow", 0x3feccccccccccccd, 0x3fe0000000000000, 0x3fee5b9d136c6d96},
    {"pow", 0x3f50624dd2f1a9fc, 0x3ff6db6db6db6db7, 0x3f0b27c5f2d8cd91},
    {"cos", 0x3fe41b2f769cf0e0, 0, 0x3fe9e3779b97f4a8},
    {"cos", 0x3ffe28c731eb6950, 0, 0xbfd3c6ef372fe94e},
    {"cos", 0x40069e9565708efc, 0, 0xbfee6f0e134454ff},
    {"cos", 0x401197c987c952c4, 0, 0xbfd3c6ef372fe952},
    {"cos", 0x40191b8c3ad68a3c, 0, 0x3fefffd69aa0b99d},
    {"tgamma", 0x4008000000000000, 0, 0x4000000000000000},
    {"tgamma", 0x4014000000000000, 0, 0x4038000000000000},
    {"tgamma", 0x3ffaaaaaaaaaaaaa, 0, 0x3fece34a18baf34c},
    {"tgamma", 0x4002aaaaaaaaaaaa, 0, 0x3ff30cdbd884029d},
    {"tgamma", 0x3ff6666666666666, 0, 0x3fec647716e331bb},
    {"tgamma", 0x3ffccccccccccccd, 0, 0x3fedcde5568c5458},
    {"tgamma", 0x3ff4000000000000, 0, 0x3fed013fc47eeeea},
    {"tgamma", 0x3ff8000000000000, 0, 0x3fec5bf891b4ef6b},
};

/// Read through a volatile so the compiler cannot fold the call with
/// its own (correctly rounded) arithmetic.
double opaque(std::uint64_t bits) {
  volatile double v = std::bit_cast<double>(bits);
  return v;
}

double call(const std::string& fn, double x, double y) {
  if (fn == "log") return std::log(x);
  if (fn == "log1p") return std::log1p(x);
  if (fn == "exp") return std::exp(x);
  if (fn == "pow") return std::pow(x, y);
  if (fn == "cos") return std::cos(x);
  if (fn == "tgamma") return std::tgamma(x);
  ADD_FAILURE() << "no pinned function " << fn;
  return 0.0;
}

std::string hex64(std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

TEST(LibmFingerprint, EveryPinnedResultHolds) {
  for (const Pinned& p : kPinned) {
    const std::string fn = p.fn;
    const double got = call(fn, opaque(p.x), opaque(p.y));
    const auto got_bits = std::bit_cast<std::uint64_t>(got);
    const std::string args = fn == "pow" ? hex64(p.x) + ", " + hex64(p.y) : hex64(p.x);
    EXPECT_EQ(got_bits, p.result) << "libm differs from the pinned one: " << fn << "(" << args
                                  << ") = " << hex64(got_bits) << ", pinned " << hex64(p.result);
  }
}

}  // namespace
