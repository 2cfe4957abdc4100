#pragma once

#include <array>
#include <span>

namespace workload {

/// xs[i] = std::log(xs[i]) for every i, bit for bit, faster than a
/// loop of std::log calls on CPUs with AVX-512F/DQ.
///
/// The contract is libm's bits, not correct rounding.  The kernel
/// computes log(x) as a double-double within 2^-60 relative and keeps
/// its rounded result only when the double-double lies at least 1/32
/// ulp from a rounding midpoint.  glibc documents its log as within
/// 0.519 ulp, so there both round to the same double.  Every other
/// result (about 1 in 16), and every input that is not a positive
/// normal or is 1.0, is recomputed with std::log.  Other CPUs run the
/// plain std::log loop.
void log_batch(std::span<double> xs);

/// Whether this CPU runs log_batch's AVX-512 kernel.
[[nodiscard]] bool log_batch_has_kernel();

/// The AVX-512 kernel itself, for CPUs where log_batch_has_kernel().
void log_batch_avx512(std::span<double> xs);

/// One interval of log_batch's reduction z in [0.6875, 1.375):
/// invc ~ 1/c for the interval's centre c, and log(c) = -log(invc)
/// as the double-double logc_hi + logc_lo.
struct LogTableEntry {
  double invc;
  double logc_hi;
  double logc_lo;
};

/// The committed table (generated by tools/gen_log_table.py).
extern const std::array<LogTableEntry, 256> kLogTable;

}  // namespace workload
