#include "dls/chunk_sequence.hpp"

namespace dls {

std::vector<ChunkRecord> chunk_sequence(Technique& technique, double task_time) {
  technique.reset();
  std::vector<ChunkRecord> out;
  const std::size_t p = technique.params().p;
  double now = 0.0;
  std::size_t pe = 0;
  for (;;) {
    const std::size_t size = technique.next_chunk(Request{pe, now});
    if (size == 0) break;
    out.push_back({pe, size});
    const double exec = task_time * static_cast<double>(size);
    now += exec;
    technique.on_chunk_complete(ChunkFeedback{pe, size, exec, now});
    pe = (pe + 1) % p;
  }
  return out;
}

}  // namespace dls
