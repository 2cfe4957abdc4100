#include "workload/log_batch.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// GCC 12's AVX-512 shift and gather intrinsics pass _mm512_undefined_*()
// as their unused source, which -Wmaybe-uninitialized reports inside
// the header (GCC bug 105593, fixed in GCC 13).
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#define DLS_LOG_BATCH_AVX512 1
#else
#define DLS_LOG_BATCH_AVX512 0
#endif

namespace workload {

#include "log_table.inc"

static_assert(sizeof(LogTableEntry) == 3 * sizeof(double), "the kernel gathers with stride 3");

namespace {

void log_libm(std::span<double> xs) {
  for (double& x : xs) x = std::log(x);
}

}  // namespace

#if DLS_LOG_BATCH_AVX512

#define DLS_AVX512 gnu::target("avx512f,avx512dq,fma")

namespace {

constexpr std::int64_t kOff = 0x3fe6000000000000;  // 0.6875: z in [0.6875, 1.375)

/// log of the 8 doubles at p, in place, for the lanes it keeps; the
/// lanes it returns still hold their input.
[[DLS_AVX512]] inline __mmask8 log8(double* p) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d x = _mm512_loadu_pd(p);
  const __m512i ix = _mm512_castpd_si512(x);
  // Positive normals other than 1.0 (log 0 has no ulp to test against).
  const __mmask8 normal =
      _mm512_cmplt_epu64_mask(_mm512_sub_epi64(ix, _mm512_set1_epi64(0x0010000000000000)),
                              _mm512_set1_epi64(0x7fe0000000000000));
  const __mmask8 ok = normal & _mm512_cmp_pd_mask(x, one, _CMP_NEQ_UQ);

  // x = 2^k z with z in [0.6875, 1.375); the top 8 mantissa bits of
  // x - 0.6875's bits pick z's interval.
  const __m512i tmp = _mm512_sub_epi64(ix, _mm512_set1_epi64(kOff));
  const __m512i idx = _mm512_and_si512(_mm512_srli_epi64(tmp, 44), _mm512_set1_epi64(255));
  const __m512d kd = _mm512_cvtepi64_pd(_mm512_srai_epi64(tmp, 52));
  const __m512d z = _mm512_castsi512_pd(_mm512_sub_epi64(
      ix, _mm512_and_si512(tmp, _mm512_set1_epi64(static_cast<std::int64_t>(0xfff0000000000000)))));
  const __m512i row = _mm512_add_epi64(idx, _mm512_slli_epi64(idx, 1));  // 3 doubles a row
  const __m512d invc = _mm512_i64gather_pd(row, &kLogTable[0].invc, 8);
  const __m512d logc_hi = _mm512_i64gather_pd(row, &kLogTable[0].logc_hi, 8);
  const __m512d logc_lo = _mm512_i64gather_pd(row, &kLogTable[0].logc_lo, 8);

  // r = z invc - 1 = a + p_lo exactly (p_hi is within 2^-8 of 1, so
  // p_hi - 1 is exact), |a| < 2^-8.
  const __m512d p_hi = _mm512_mul_pd(z, invc);
  const __m512d p_lo = _mm512_fmsub_pd(z, invc, p_hi);
  const __m512d a = _mm512_sub_pd(p_hi, one);

  // log1p(a) = a - a^2/2 + a^3 R(a), the degree-8 Taylor polynomial.
  // a^2 is exact as s_hi + s_lo, and a - s_hi/2 a Fast2Sum (|a| > a^2).
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d s_hi = _mm512_mul_pd(a, a);
  const __m512d s_lo = _mm512_fmsub_pd(a, a, s_hi);
  const __m512d half_s = _mm512_mul_pd(s_hi, half);
  const __m512d h1 = _mm512_sub_pd(a, half_s);
  const __m512d l1 = _mm512_sub_pd(_mm512_sub_pd(a, h1), half_s);
  __m512d poly = _mm512_set1_pd(-1.0 / 8);
  poly = _mm512_fmadd_pd(poly, a, _mm512_set1_pd(1.0 / 7));
  poly = _mm512_fmadd_pd(poly, a, _mm512_set1_pd(-1.0 / 6));
  poly = _mm512_fmadd_pd(poly, a, _mm512_set1_pd(1.0 / 5));
  poly = _mm512_fmadd_pd(poly, a, _mm512_set1_pd(-1.0 / 4));
  poly = _mm512_fmadd_pd(poly, a, _mm512_set1_pd(1.0 / 3));
  poly = _mm512_mul_pd(_mm512_mul_pd(s_hi, a), poly);
  // log1p(a + p_lo) - log1p(a) = p_lo (1 - a + a^2) + O(p_lo a^3).
  const __m512d corr = _mm512_fmadd_pd(p_lo, _mm512_sub_pd(s_hi, a), p_lo);
  const __m512d tail1 = _mm512_add_pd(
      _mm512_add_pd(_mm512_fnmadd_pd(half, s_lo, l1), poly), corr);

  // k ln2 + log c: k * kLn2Hi is exact, and |k ln2| > |log c| unless
  // k = 0, so a Fast2Sum suffices.
  const __m512d t1 = _mm512_mul_pd(kd, _mm512_set1_pd(kLn2Hi));
  const __m512d th = _mm512_add_pd(t1, logc_hi);
  const __m512d tl = _mm512_sub_pd(logc_hi, _mm512_sub_pd(th, t1));
  // hi + e = th + h1 exactly (TwoSum).
  const __m512d hi = _mm512_add_pd(th, h1);
  const __m512d bb = _mm512_sub_pd(hi, th);
  const __m512d e =
      _mm512_add_pd(_mm512_sub_pd(th, _mm512_sub_pd(hi, bb)), _mm512_sub_pd(h1, bb));
  const __m512d lo = _mm512_add_pd(
      _mm512_add_pd(e, _mm512_add_pd(tl, _mm512_fmadd_pd(kd, _mm512_set1_pd(kLn2Lo), logc_lo))),
      tail1);
  const __m512d h = _mm512_add_pd(hi, lo);

  // Keep h only when hi + lo +- 2^-5 ulp(h) round alike, so the true
  // log (within 2^-7 ulp of hi + lo) is >= 3/128 ulp from a midpoint.
  const __m512d b = _mm512_castsi512_pd(_mm512_sub_epi64(
      _mm512_and_si512(_mm512_castpd_si512(h), _mm512_set1_epi64(0x7ff0000000000000)),
      _mm512_set1_epi64(std::int64_t{57} << 52)));
  const __mmask8 keep =
      ok & _mm512_cmp_pd_mask(_mm512_add_pd(hi, _mm512_sub_pd(lo, b)),
                              _mm512_add_pd(hi, _mm512_add_pd(lo, b)), _CMP_EQ_OQ);
  _mm512_mask_storeu_pd(p, keep, h);
  return static_cast<__mmask8>(~keep);
}

/// std::log on every set bit of `redo`, an element mask of p.
void redo_with_libm(double* p, std::uint64_t redo) {
  for (; redo != 0; redo &= redo - 1) {
    double& x = p[std::countr_zero(redo)];
    x = std::log(x);
  }
}

}  // namespace

[[DLS_AVX512]] void log_batch_avx512(std::span<double> xs) {
  double* p = xs.data();
  const std::size_t n = xs.size();
  std::size_t i = 0;
  // Blocks of 64 collect one mask, so the libm pass is a ctz walk and
  // not a branch per vector.
  for (; i + 64 <= n; i += 64) {
    std::uint64_t redo = 0;
    for (unsigned v = 0; v < 8; ++v) redo |= std::uint64_t{log8(p + i + 8 * v)} << (8 * v);
    redo_with_libm(p + i, redo);
  }
  for (; i + 8 <= n; i += 8) redo_with_libm(p + i, log8(p + i));
  log_libm(xs.subspan(i));
}

bool log_batch_has_kernel() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("fma");
}

#undef DLS_AVX512

#else

// No x86-64: the kernel does not exist and log_batch never selects it.
void log_batch_avx512(std::span<double> xs) { log_libm(xs); }

bool log_batch_has_kernel() { return false; }

#endif

void log_batch(std::span<double> xs) {
  static const bool kernel = log_batch_has_kernel();
  if (kernel) {
    log_batch_avx512(xs);
  } else {
    log_libm(xs);
  }
}

}  // namespace workload
