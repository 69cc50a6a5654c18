#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace qgnn {

/// Order-dependent 64-bit combine shared by every graph hash.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Sorted-neighbourhood color refinement over one graph: the kernel behind
/// wl_hash, canonical_colors and canonical_hash.
///
/// One round gives each node the hash of its old color and the sorted
/// multiset of (neighbour color, quantized edge weight) signatures. The
/// constructor flattens the adjacency once, with each edge weight
/// quantized to 1e-9, and the rounds reuse the object's buffers, so a
/// refinement neither scans the edge list nor allocates.
class ColorRefiner {
 public:
  explicit ColorRefiner(const Graph& g);

  /// Starting coloring: degree + 1 per node.
  std::vector<std::uint64_t> initial_colors() const;

  /// One refinement round, in place. `c` must hold one color per node.
  void round(std::vector<std::uint64_t>& c);

  /// Refine `c` in place until a round no longer splits a color class.
  /// The class count never decreases and is bounded by n, so this runs at
  /// most n rounds; the returned colors are those of the last round run.
  void refine_stable(std::vector<std::uint64_t>& c);

  /// Order-free combine of a color multiset into one value; sorts
  /// `colors` in place.
  static std::uint64_t combine_sorted(std::vector<std::uint64_t>& colors);

 private:
  std::size_t distinct_count(const std::vector<std::uint64_t>& c);

  int n_ = 0;
  std::vector<int> offsets_;           // n + 1 CSR row starts
  std::vector<int> neighbors_;         // 2m neighbour ids
  std::vector<std::uint64_t> weights_; // quantized weight per neighbour
  std::vector<std::uint64_t> next_;    // round output, swapped into place
  std::vector<std::uint64_t> sig_;     // one node's signature list
};

/// Sort a short array ascending. Up to 16 elements it runs a fixed network
/// of branch-free compare-exchanges (size-optimal networks for 2..8, an
/// insertion network for 9..16), so no branch depends on the data; longer
/// arrays fall back to std::sort.
void sort_small(std::uint64_t* a, int len);

}  // namespace qgnn
