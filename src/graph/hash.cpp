#include "graph/hash.hpp"

#include <vector>

#include "graph/refine.hpp"

namespace qgnn {

std::uint64_t wl_hash(const Graph& g, int iterations) {
  ColorRefiner refiner(g);
  std::vector<std::uint64_t> color = refiner.initial_colors();
  for (int it = 0; it < iterations; ++it) refiner.round(color);
  // Order-independent final combine: sorted multiset of node colors.
  return ColorRefiner::combine_sorted(color);
}

}  // namespace qgnn
