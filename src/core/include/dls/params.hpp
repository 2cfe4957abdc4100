#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dls {

/// The DLS techniques studied by the paper (Table II) plus the
/// techniques it defers to future work (TAP and the adaptive family),
/// which this library also implements.
enum class Kind {
  kStatic,   // STAT: static chunking, one block of ~n/p per PE
  kSS,       // SS:   self scheduling, one task at a time
  kCSS,      // CSS(k): chunk self scheduling, fixed programmer-chosen k
  kFSC,      // FSC:  fixed size chunking (Kruskal & Weiss 1985)
  kGSS,      // GSS(k): guided self scheduling (Polychronopoulos & Kuck 1987)
  kTSS,      // TSS:  trapezoid self scheduling (Tzen & Ni 1993)
  kFAC,      // FAC:  factoring with known mu/sigma (Hummel et al. 1992)
  kFAC2,     // FAC2: practical factoring, halving batches
  kBOLD,     // BOLD: Hagerup 1997
  kTAP,      // TAP:  taper (Lucco 1992)            [future work in the paper]
  kWF,       // WF:   weighted factoring (Hummel et al. 1996)
  kAWF,      // AWF:  adaptive weighted factoring, per time step
  kAWFB,     // AWF-B: weights adapted per batch
  kAWFC,     // AWF-C: weights adapted per chunk
  kAWFD,     // AWF-D: per batch, overhead-aware chunk times
  kAWFE,     // AWF-E: per chunk, overhead-aware chunk times
  kAF,       // AF:   adaptive factoring (Banicescu & Liu 2000)
  kMFSC,     // mFSC: fixed chunk sized to FAC2's chunk count
  kTFSS,     // TFSS: trapezoid factoring self scheduling (TSS in batches)
  kRND,      // RND:  uniformly random chunk sizes (stress baseline)
};

/// Canonical upper-case names as used in the paper ("STAT", "SS", ...).
[[nodiscard]] std::string to_string(Kind kind);
/// Parse a canonical name; throws std::invalid_argument for unknown names.
[[nodiscard]] Kind kind_from_string(const std::string& name);
/// All kinds, in the paper's presentation order.
[[nodiscard]] const std::vector<Kind>& all_kinds();
/// The eight techniques of the BOLD-publication experiments (Figs 5-8).
[[nodiscard]] const std::vector<Kind>& bold_publication_kinds();

/// Scheduling parameters in the notation of paper Table I.
///
///   p      number of PEs
///   n      number of tasks
///   h      scheduling overhead per scheduling operation [s]
///   mu     mean of the task execution times [s]
///   sigma  standard deviation of the task execution times [s]
///   f, l   first and last chunk size (TSS)
///
/// plus the technique-specific knobs that the reproduced experiments
/// vary (CSS chunk size, GSS minimum chunk size, TAP's v_alpha, WF
/// weights).
struct Params {
  std::size_t p = 1;
  std::size_t n = 0;
  double h = 0.0;
  double mu = 1.0;
  double sigma = 0.0;

  /// CSS(k): the programmer-chosen chunk size; 0 selects the TSS
  /// publication's convention k = ceil(n/p).
  std::size_t css_chunk = 0;
  /// GSS(k): smallest chunk size GSS is allowed to schedule (the value
  /// in parentheses in the paper's Figures 3-4); plain GSS is GSS(1).
  std::size_t gss_min_chunk = 1;
  /// TSS first/last chunk sizes; 0 selects the defaults f = ceil(n/(2p))
  /// and l = 1 from the TSS publication.
  std::size_t tss_first = 0;
  std::size_t tss_last = 0;
  /// TAP: the v_alpha multiplier in alpha = v_alpha * sigma / mu.
  double tap_v_alpha = 1.3;
  /// WF: fixed relative PE weights (empty = all equal).  Values are
  /// normalized internally so that their mean is 1.
  std::vector<double> weights;
  /// RND: chunk-size bounds and deterministic seed.  rnd_max = 0
  /// selects the conventional upper bound ceil(n/p).
  std::size_t rnd_min = 1;
  std::size_t rnd_max = 0;
  std::uint64_t rnd_seed = 1;

  /// Every field compared, so a cache keyed on Params (the runtime
  /// backend's executor) rebuilds whenever any scheduling knob changes.
  friend bool operator==(const Params&, const Params&) = default;
};

/// Parameter-requirement bits reproducing paper Table II.
namespace requires_bit {
inline constexpr unsigned kP = 1u << 0;      // number of PEs
inline constexpr unsigned kN = 1u << 1;      // number of tasks
inline constexpr unsigned kR = 1u << 2;      // number of remaining tasks
inline constexpr unsigned kH = 1u << 3;      // scheduling overhead
inline constexpr unsigned kMu = 1u << 4;     // mean of task times
inline constexpr unsigned kSigma = 1u << 5;  // std deviation of task times
inline constexpr unsigned kFirst = 1u << 6;  // first chunk size
inline constexpr unsigned kLast = 1u << 7;   // last chunk size
inline constexpr unsigned kM = 1u << 8;      // remaining + in-execution tasks
}  // namespace requires_bit

/// Human-readable rendering of a requirement mask, e.g. "p,n,h,sigma".
[[nodiscard]] std::string requires_to_string(unsigned mask);

}  // namespace dls
