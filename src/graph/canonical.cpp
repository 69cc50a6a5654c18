#include "graph/canonical.hpp"

#include "graph/refine.hpp"

namespace qgnn {

namespace {

/// Marker mixed into an individualized node's color; any constant works as
/// long as it is applied to exactly one node per run.
constexpr std::uint64_t kIndividualizeMark = 0xd1b54a32d192ed03ULL;

}  // namespace

std::vector<std::uint64_t> canonical_colors(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return {};

  ColorRefiner refiner(g);
  std::vector<std::uint64_t> base = refiner.initial_colors();
  refiner.refine_stable(base);

  // Individualize every node in turn. For already-discrete partitions this
  // is redundant but harmless; for regular graphs it is what separates
  // 1-WL-equivalent non-isomorphic pairs.
  std::vector<std::uint64_t> node_sigs(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> c;
  for (int v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    c = base;
    c[i] = hash_mix(c[i], kIndividualizeMark);
    refiner.refine_stable(c);
    // The individualized node's own stable color is folded in separately:
    // it pins the signature to the chosen node's orbit, not just to the
    // whole-graph color distribution.
    const std::uint64_t own = c[i];
    node_sigs[i] = hash_mix(ColorRefiner::combine_sorted(c), own);
  }
  sort_small(node_sigs.data(), n);
  return node_sigs;
}

std::uint64_t canonical_hash(const Graph& g) {
  std::uint64_t h = hash_mix(static_cast<std::uint64_t>(g.num_nodes()) + 1,
                             static_cast<std::uint64_t>(g.num_edges()) + 1);
  for (std::uint64_t s : canonical_colors(g)) h = hash_mix(h, s);
  return h;
}

}  // namespace qgnn
