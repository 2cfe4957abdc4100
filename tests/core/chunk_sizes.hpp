#pragma once

// The chunk sizes of dls::chunk_sequence: the form the technique tests
// pin known sequences in.

#include <cstddef>
#include <vector>

#include "dls/chunk_sequence.hpp"

namespace core_test {

inline std::vector<std::size_t> chunk_sizes(dls::Technique& technique, double task_time = 1.0) {
  std::vector<std::size_t> out;
  for (const dls::ChunkRecord& rec : dls::chunk_sequence(technique, task_time)) {
    out.push_back(rec.size);
  }
  return out;
}

}  // namespace core_test
