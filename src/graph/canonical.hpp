#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/annotations.hpp"

namespace qgnn {

/// Canonical, isomorphism-invariant 64-bit graph hash.
///
/// Strictly stronger than wl_hash: plain 1-WL color refinement leaves any
/// d-regular graph uniformly colored, so every pair of d-regular graphs on
/// the same node count collides — exactly the shape of the paper's dataset.
/// canonical_hash therefore runs sorted degree/neighborhood refinement to a
/// fixed point and then *individualizes* each node in turn (give it a
/// unique color, re-refine, record the resulting color multiset). The
/// sorted multiset of per-node signatures separates the classic 1-WL
/// failure pairs (C6 vs. two triangles, K3,3 vs. the triangular prism) and
/// every regular pair below the smallest strongly-regular twins (16 nodes,
/// Shrikhande vs. 4x4 rook) — beyond the dataset's 15-node ceiling.
///
/// Cost: about 30 µs per graph for the serving classes (n = 13..14,
/// d = 4..6; about 67 refinement rounds per hash) on one 2.1 GHz Xeon core
/// (BM_CanonicalHash), a fifth of a cache-hit round trip. Worst case is n
/// individualizations of up to n rounds, each O(m + n^2) for n <= 32 and
/// O(m + n log n) above. Edge weights are folded in by quantizing to 1e-9,
/// matching wl_hash.
///
/// Guarantees:
///  - isomorphic graphs (any relabelling, any edge insertion order) hash
///    equal;
///  - non-isomorphic graphs hash differently unless they are
///    1-WL-with-individualization equivalent AND a 64-bit collision occurs.
std::uint64_t canonical_hash(const Graph& g) QGNN_BIT_IDENTICAL_PATH;

/// Stable refined node colors of `g` after sorted neighborhood refinement
/// with per-node individualization, sorted ascending. Two isomorphic
/// graphs produce the same vector; exposed for tests and diagnostics.
std::vector<std::uint64_t> canonical_colors(const Graph& g);

}  // namespace qgnn
