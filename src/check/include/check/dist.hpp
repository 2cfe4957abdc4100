#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "sweep/grid.hpp"

namespace check {

/// Invariants of the fault-tolerant distributed sweep (dls::dist),
/// following the catalog convention of check/invariants.hpp: each
/// returns std::nullopt when the invariant holds and a human-readable
/// account of the first violation otherwise.  `dls_check records` /
/// `dls_check leases` expose them to CI.

/// "merged_unique": no (cell, backend) appears twice in a merged sweep
/// output -- a sweep that lost and retried workers must not compute a
/// cell into the record stream twice.  Also rejects lines that are not
/// complete records (a merged output has no excuse for a torn tail).
[[nodiscard]] std::optional<std::string> check_merged_unique_cells(
    const std::vector<std::string>& lines);

/// "merged_complete": the merged output covers every (cell, backend)
/// of `grid` exactly once -- nothing lost to a reclaimed lease,
/// nothing duplicated by a retry.
[[nodiscard]] std::optional<std::string> check_merged_complete(
    const sweep::Grid& grid, const std::vector<std::string>& lines);

/// "lease_exclusivity": replaying a coordinator lease-event log, no
/// stripe is ever leased while a live worker still holds it, no worker
/// holds two leases at once, and terminal events (done/adopt/reclaim)
/// come from the stripe's current holder.  A seq that moves backward
/// marks a coordinator restart and resets the replay (the log file is
/// append-mode across runs).
[[nodiscard]] std::optional<std::string> check_lease_exclusivity(
    const std::vector<dist::LeaseEvent>& events);

}  // namespace check
