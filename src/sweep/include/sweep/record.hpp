#pragma once

#include <compare>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "sweep/grid.hpp"

namespace sweep {

/// Identity of one record in a file that may hold several backends'
/// runs of one spec: the cell index plus the record's backend ("mw"
/// unless the spec says otherwise).  Only the readers where such runs
/// meet key on it -- scan_records, merge_records and the report views;
/// a sweep resumes a grid (one backend) by cell index.  Ordering is
/// (cell, backend name): merging one run per backend of the same spec
/// interleaves the backends cell by cell, and sorted merges reproduce
/// an unsharded run's bytes.
struct RecordKey {
  std::size_t cell = 0;
  std::string backend;
  friend auto operator<=>(const RecordKey&, const RecordKey&) = default;
};

/// Renders the records of ONE grid, each completed cell as a single
/// JSONL record:
///
///   {"cell":12,"of":40,"backend":"mw","replicas":100,
///    "sweep":{"technique":"GSS","workers":"64"},
///    "seed":13623984377702626965,"seed_stride":1,
///    "experiment":"technique GSS\n...","makespan":{...},
///    "avg_wasted_time":{...},"speedup":{...},"chunks":{...}}
///
/// "cell"/"of" are the cell index and the grid size; "backend" and
/// "replicas" are explicit top-level fields.  The "sweep" object
/// carries the axis assignment.  `experiment` is the serialized cell
/// spec with the derived seed (and the backend key) applied -- pipe
/// it into `dls_sweep -` to replay the cell.  Each summary object carries
/// count/mean/stddev/min/max/median/p5/p95/ci95_lo/ci95_hi/nan_count
/// (stats::Summary).  A cell whose spec says `series true` appends
/// `"avg_wasted_time_series":[...]`, every replica's value in replica
/// order.  All doubles use shortest round-trip formatting,
/// so re-running a cell on a deterministic backend renders a
/// byte-identical record and shard merges are deterministic.  (The
/// native `runtime` backend measures wall clock: its records resume and
/// merge by identity, but re-running such a cell produces different
/// bytes.)
///
/// The invariant pieces are built once per grid: the `"of"`/grid-size
/// fragment is formatted at construction, and the `experiment` echo is
/// assembled from the cell and job already in hand, byte-identical to
/// cell_experiment_text (which re-expands the cell).
class RecordRenderer {
 public:
  explicit RecordRenderer(const Grid& grid);

  [[nodiscard]] std::string render(const Cell& cell, const exec::BatchJob& job,
                                   const exec::BatchResult& result) const;

 private:
  std::string of_fragment_;  ///< ",\"of\":<cells>" -- invariant per grid
};

/// The "backend" field of a record line; nullopt if the line is not a
/// complete record.
[[nodiscard]] std::optional<std::string> record_backend(std::string_view line);

/// The full identity (cell, backend) of a record line; nullopt if the
/// line is not a complete record (e.g. truncated by a mid-write kill).
[[nodiscard]] std::optional<RecordKey> record_key(std::string_view line);

/// The "of" field (grid size) of a record line; nullopt if
/// the line is not a complete record.
[[nodiscard]] std::optional<std::size_t> record_grid_size(std::string_view line);

/// The unescaped "experiment" echo of a record line; nullopt if the
/// line is not a complete record.
[[nodiscard]] std::optional<std::string> record_experiment(std::string_view line);

/// The "sweep" object of a record line: (axis key, value) in axis
/// order, empty for a spec without `sweep` lines; nullopt if the line
/// is not a complete record.
[[nodiscard]] std::optional<std::vector<std::pair<std::string, std::string>>>
record_assignment(std::string_view line);

/// The `field` (e.g. "mean") of the summary object `summary` (e.g.
/// "avg_wasted_time") of a record line -- the exact double the record
/// was rendered from, non-finite values included; nullopt if the line
/// is not a complete record or has no such field.
[[nodiscard]] std::optional<double> record_summary_field(std::string_view line,
                                                         std::string_view summary,
                                                         std::string_view field);

/// The per-replica avg_wasted_time values of a record of a `series
/// true` cell, exactly as rendered; nullopt if the line is not a
/// complete record or carries no series.
[[nodiscard]] std::optional<std::vector<double>> record_series(std::string_view line);

/// The experiment echo a record of cell `index` must carry (the
/// serialized cell spec with the derived seed and backend applied --
/// what RecordRenderer embeds).
[[nodiscard]] std::string cell_experiment_text(const Grid& grid, std::size_t index);

/// Check that previously written records actually belong to `grid`:
/// every record's grid size must equal grid.cells(), its cell index
/// must be in range, its backend must be the grid's backend, and
/// its experiment echo must be byte-identical to what the grid would
/// run for that cell.  Throws std::invalid_argument
/// otherwise -- resuming with the wrong spec (or onto the wrong output
/// file) must fail loudly, not silently keep stale results.
void validate_records_for_grid(const Grid& grid, const std::vector<std::string>& lines);

/// What a resume scan found in an existing output file.
struct ScanResult {
  std::vector<std::string> lines;   ///< the complete records, in file order
  bool dropped_partial_tail = false;  ///< a truncated final line was discarded
};

/// Scan an existing sweep output for resumable state.  A malformed
/// *final* line is the signature of a kill mid-write and is dropped
/// (reported via dropped_partial_tail); a malformed line anywhere else
/// means the file is not a sweep output and throws.  A structurally
/// complete record whose `experiment` echo fails to re-parse is
/// corruption (a kill truncates, it cannot rewrite a line's middle)
/// and throws with the offending line number -- even at the tail.
/// Duplicate (cell, backend) records must be byte-identical (the
/// deterministic-record guarantee); conflicting duplicates throw.
[[nodiscard]] ScanResult scan_records(std::istream& in);

/// Deterministically merge shard outputs (e.g. from independent
/// machines): records are deduplicated by (cell, backend)
/// (byte-identical duplicates collapse; conflicting records throw) and
/// returned sorted by (cell, backend name) -- the canonical emission
/// order -- so any shard arrival order produces the same merged file,
/// byte-identical to an unsharded run.  Records must agree on the grid
/// size ("of" field).
[[nodiscard]] std::vector<std::string> merge_records(
    const std::vector<std::vector<std::string>>& shards);

}  // namespace sweep
