#pragma once

#include <cstddef>

#include "sweep/grid.hpp"

namespace sweep {

/// Shard striping -- the single definition of which shard owns which
/// cell, shared by SweepRunner::owned_cells, SweepRunner::run,
/// `dls_sweep --list` and the dist coordinator's stripes: cell `index`
/// is owned by shard `index % shard_count`, so every shard sees a mix
/// of cheap and expensive cells of a grid ordered by size.

/// Visit the cell indices owned by (shard_index, shard_count) in
/// increasing canonical order.  `fn(index)` returns false to stop early
/// (the max_cells truncation).
template <typename Fn>
void for_each_owned_index(const Grid& grid, std::size_t shard_index, std::size_t shard_count,
                          Fn&& fn) {
  const std::size_t cells = grid.cells();
  for (std::size_t index = shard_index; index < cells; index += shard_count) {
    if (!fn(index)) return;
  }
}

/// Number of cells the shard owns.
[[nodiscard]] inline std::size_t owned_index_count(const Grid& grid, std::size_t shard_index,
                                                   std::size_t shard_count) {
  const std::size_t cells = grid.cells();
  return shard_index < cells ? (cells - 1 - shard_index) / shard_count + 1 : 0;
}

}  // namespace sweep
