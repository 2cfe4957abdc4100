#pragma once

#include <cstddef>
#include <vector>

#include "dls/technique.hpp"

namespace dls {

/// One issued chunk in a synthetic scheduling trace.
struct ChunkRecord {
  std::size_t pe = 0;
  std::size_t size = 0;
};

/// Enumerate the full chunk sequence a technique produces when PEs
/// request work round-robin and every chunk completes before the next
/// request (the classic "chunk table" view used throughout the DLS
/// literature, and by this repo's tests to pin known sequences).
///
/// `task_time` is the assumed constant per-task execution time used to
/// synthesize completion feedback for the adaptive techniques.
[[nodiscard]] std::vector<ChunkRecord> chunk_sequence(Technique& technique,
                                                      double task_time = 1.0);

}  // namespace dls
