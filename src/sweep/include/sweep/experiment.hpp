#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "mw/config.hpp"

namespace sweep {

/// Textual experiment description -- all three columns of paper
/// Figure 2: application, system and execution information.  The
/// system keys describe the star of Figure 1 -- the worker speeds and
/// the one link every worker has (the extensions below); there is no
/// separate platform file.  examples/*.sweep walk
/// through it.  Format (one `key value` pair per line, '#' comments):
///
///   technique FAC2            # STAT SS CSS FSC GSS TSS FAC FAC2 BOLD ...
///   tasks     8192
///   workers   8
///   workload  exponential:1.0 # see workload::from_spec
///   h         0.5             # finite, >= 0
///   mu        1.0             # finite, >= 0; defaults to the workload mean
///   sigma     1.0             # finite, >= 0; defaults to the workload stddev
///   timesteps 1               # >= 1
///   seed      42
///   overhead  analytic        # or: simulated, inline (backend hagerup only)
///   latency   1e-12           # finite, >= 0
///   bandwidth 1e21            # > 0; inf means transfers cost only latency
///   css_chunk 0
///   gss_min   1
///   rand48    false
///   replicas  1               # > 1 batches independent seeds (exec::BatchRunner)
///   seed_stride 1             # replica r runs with seed + seed_stride * r
///   threads   0               # pool width for the replicas (0 = hardware); fits unsigned
///   backend   mw              # execution vehicle: one of exec::backend_names()
///   series    false           # true: the record carries every replica's
///                             # avg_wasted_time (paper Figure 9)
///
/// Tokenization (shared with sweep::parse_grid; support/text.hpp):
/// lines end at '\n' (a last line without one counts); everything from
/// a line's first '#' on is a comment, also when the '#' is glued to a
/// token; tokens split on the classic whitespace set " \t\n\v\f\r", so
/// a CRLF file reads like its LF copy, while NUL and bytes >= 0x80 stay
/// inside tokens.  A comma list (`speeds`, `weights`, `failures`,
/// `profile<i>`, workload arguments) ignores one trailing comma
/// ("1,2," is two entries); an empty entry (",1" or "1,,2") is an
/// error.
///
/// A `sweep <key> <v1> <v2> ...` line is a grid directive, not an
/// experiment key: sweep::parse_grid expands the cartesian product of
/// all sweep lines into one experiment per cell (tools/dls_sweep).
/// parse_experiment_spec rejects it with a pointer at dls_sweep so a
/// grid spec fed to the single-experiment parser fails loudly instead
/// of dropping an axis.
///
/// System-information extensions (the heterogeneity/resilience side of
/// the Config space; all optional):
///
///   host_speed    1e9             # reference PE speed [flops/s]; finite, > 0
///   request_bytes 64
///   reply_bytes   64
///   speeds        1,0.5,2         # per-worker relative speed factors
///   weights       1,1,2           # per-worker WF weights (dls::Params)
///   failures      inf,3.5,inf     # per-worker fail-stop times [s]
///   profile1      0:1e9,5:0,10:1e9  # piecewise speed of worker 1 (t:flops,...)
///
/// `speeds`/`weights`/`failures` need one comma-separated entry per
/// worker; every `speeds` and `weights` entry must be finite and > 0,
/// and so must host_speed * each `speeds` entry (the worker's speed);
/// every `failures` entry >= 0 (`inf` = never fails).  A `profile<i>`
/// line gives worker i a piecewise-constant absolute speed
/// (simx::SpeedProfile); workers without a profile line keep their
/// constant speed host_speed * factor.
///
/// A parsed experiment: the simulation Config plus the execution
/// dimensions that live outside a single run.
struct ExperimentSpec {
  mw::Config config;
  std::size_t replicas = 1;           ///< replica r runs with seed + seed_stride * r
  std::uint64_t seed_stride = 1;      ///< seed distance between replicas
  unsigned threads = 0;
  /// Execution vehicle the experiment runs on (exec::backend_names();
  /// "mw" is the reference message-passing simulator).
  std::string backend = "mw";
  /// Keep the per-replica avg_wasted_time series in the cell's record.
  bool series = false;
};

/// Parse the format described above.  Unknown keys are an error (a
/// typo must not silently change an experiment).  Throws
/// std::invalid_argument naming the offending line (number and text).
[[nodiscard]] ExperimentSpec parse_experiment_spec(std::string_view text);

/// Render `spec` in the textual format above, such that
/// parse_experiment_spec(serialize_experiment_spec(spec)) describes the
/// identical experiment (doubles use shortest round-trip formatting;
/// keys at their defaults are omitted).  This is how check violations
/// become replayable experiment files.  Throws std::invalid_argument
/// for specs the format cannot express (no workload, or a workload
/// with no from_spec form).
[[nodiscard]] std::string serialize_experiment_spec(const ExperimentSpec& spec);

}  // namespace sweep
