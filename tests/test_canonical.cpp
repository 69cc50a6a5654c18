#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/refine.hpp"
#include "util/rng.hpp"

namespace qgnn {
namespace {

Graph from_edges(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = rng.uniform_int(0, i);
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

TEST(CanonicalHash, RelabelledIsomorphicGraphsHashEqual) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 6 + trial % 9;             // 6..14
    const int degree = n % 2 == 0 ? 3 : 4;   // n * degree must be even
    const Graph g = random_regular_graph(n, degree, rng);
    const std::uint64_t h = canonical_hash(g);
    for (int p = 0; p < 4; ++p) {
      const Graph permuted = g.permuted(random_permutation(n, rng));
      EXPECT_EQ(canonical_hash(permuted), h)
          << "trial " << trial << " perm " << p << " on " << g.describe();
    }
  }
}

TEST(CanonicalHash, EdgeInsertionOrderIsIrrelevant) {
  const Graph a = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const Graph b = from_edges(5, {{4, 0}, {2, 3}, {0, 1}, {3, 4}, {1, 2}});
  EXPECT_EQ(canonical_hash(a), canonical_hash(b));
}

TEST(CanonicalHash, SeparatesHexagonFromTwoTriangles) {
  // The classic 1-WL failure pair: both are 2-regular on 6 nodes, so
  // plain color refinement (and wl_hash) cannot tell them apart.
  const Graph hexagon = cycle_graph(6);
  const Graph two_triangles =
      from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_EQ(wl_hash(hexagon), wl_hash(two_triangles))
      << "pair no longer exercises the 1-WL blind spot";
  EXPECT_NE(canonical_hash(hexagon), canonical_hash(two_triangles));
}

TEST(CanonicalHash, SeparatesK33FromTriangularPrism) {
  // Both 3-regular on 6 nodes; K3,3 is triangle-free, the prism is not.
  const Graph k33 = from_edges(6, {{0, 3}, {0, 4}, {0, 5},
                                   {1, 3}, {1, 4}, {1, 5},
                                   {2, 3}, {2, 4}, {2, 5}});
  const Graph prism = from_edges(6, {{0, 1}, {1, 2}, {2, 0},
                                     {3, 4}, {4, 5}, {5, 3},
                                     {0, 3}, {1, 4}, {2, 5}});
  EXPECT_EQ(wl_hash(k33), wl_hash(prism));
  EXPECT_NE(canonical_hash(k33), canonical_hash(prism));
}

TEST(CanonicalHash, NearMissGraphsHashDifferently) {
  // Single edge rewired: same node count, same edge count, same degree
  // sequence is not required — just distinct structures.
  const Graph path5 = path_graph(5);
  const Graph cycle5 = cycle_graph(5);
  EXPECT_NE(canonical_hash(path5), canonical_hash(cycle5));

  Graph a = cycle_graph(8);
  Graph b = cycle_graph(8);
  // a gets a chord (0,4); b gets a different chord (0,3) — both now have
  // 9 edges and degree sequence {2,2,2,2,2,2,3,3}.
  a.add_edge(0, 4);
  b.add_edge(0, 3);
  EXPECT_NE(canonical_hash(a), canonical_hash(b));
}

TEST(CanonicalHash, DistinctRegularGraphsGetDistinctHashes) {
  // Sample many random 3-regular graphs on 10 nodes; wl_hash maps every
  // one of them to the same value, canonical_hash should separate the
  // non-isomorphic ones. There are only 21 isomorphism classes of
  // 3-regular graphs on 10 vertices (19 connected), so 40 samples can
  // cover at most 21 distinct values — seeing well over half of them
  // shows the hash is not collapsing like 1-WL does.
  Rng rng(7);
  std::set<std::uint64_t> wl;
  std::set<std::uint64_t> canonical;
  for (int i = 0; i < 40; ++i) {
    const Graph g = random_regular_graph(10, 3, rng);
    wl.insert(wl_hash(g));
    canonical.insert(canonical_hash(g));
  }
  EXPECT_EQ(wl.size(), 1u);  // documents the 1-WL collapse on regulars
  EXPECT_GT(canonical.size(), 10u);
  EXPECT_LE(canonical.size(), 21u);
}

TEST(CanonicalHash, EdgeWeightsAffectTheHash) {
  Graph a(3);
  a.add_edge(0, 1, 1.0);
  a.add_edge(1, 2, 1.0);
  Graph b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.5);
  EXPECT_NE(canonical_hash(a), canonical_hash(b));

  // But weight-permuted isomorphic graphs still agree.
  Graph c(3);
  c.add_edge(2, 1, 1.0);
  c.add_edge(1, 0, 2.5);
  EXPECT_EQ(canonical_hash(b), canonical_hash(c));
}

TEST(CanonicalHash, SizeAndEdgeCountAreSeparated) {
  EXPECT_NE(canonical_hash(Graph(3)), canonical_hash(Graph(4)));
  EXPECT_NE(canonical_hash(path_graph(4)), canonical_hash(cycle_graph(4)));
}

TEST(CanonicalColors, SortedAndPermutationInvariant) {
  Rng rng(3);
  const Graph g = random_regular_graph(8, 3, rng);
  const auto colors = canonical_colors(g);
  EXPECT_EQ(colors.size(), 8u);
  EXPECT_TRUE(std::is_sorted(colors.begin(), colors.end()));
  const Graph permuted = g.permuted(random_permutation(8, rng));
  EXPECT_EQ(canonical_colors(permuted), colors);
}

TEST(SortSmall, NetworksSortEveryZeroOneInputAndRandomArrays) {
  // 0-1 principle: a comparator network sorts every input iff it sorts
  // every 0/1 input, so this checks the fixed networks exhaustively.
  for (int len = 0; len <= 16; ++len) {
    for (std::uint32_t bits = 0; bits < (1u << len); ++bits) {
      std::vector<std::uint64_t> a(static_cast<std::size_t>(len));
      for (int i = 0; i < len; ++i) {
        a[static_cast<std::size_t>(i)] = (bits >> i) & 1;
      }
      sort_small(a.data(), len);
      ASSERT_TRUE(std::is_sorted(a.begin(), a.end()))
          << "len " << len << " bits " << bits;
    }
  }
  Rng rng(17);
  for (int len = 0; len <= 40; ++len) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint64_t> a(static_cast<std::size_t>(len));
      for (std::uint64_t& x : a) {
        // Few distinct values (ties) and the extremes of the range.
        x = trial % 2 == 0 ? static_cast<std::uint64_t>(rng.uniform_int(0, 3))
                           : ~static_cast<std::uint64_t>(rng.index(1u << 20));
      }
      std::vector<std::uint64_t> want = a;
      std::sort(want.begin(), want.end());
      sort_small(a.data(), len);
      ASSERT_EQ(a, want) << "len " << len;
    }
  }
}

// ---- golden values ------------------------------------------------------
//
// canonical_hash is the prediction-cache key, the router's ring position
// and the miner's dedup identity, and wl_hash dedups datasets: a kernel
// rewrite must reproduce every value bit for bit. The numbers below were
// recorded from the original implementation (one std::sort per node per
// round, Graph::edge_weight per neighbour, fresh buffers per round). The
// seeded corpus depends on Rng, i.e. std::mt19937_64 plus the standard
// library's distributions; the named values do not.

/// Order-sensitive 64-bit fold (FNV-1a over words, then a finalizer mix).
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ULL;
  return h ^ (h >> 29);
}

Graph petersen_graph() {
  return from_edges(10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                         {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
                         {5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}});
}

/// Every d-regular class with 6 <= n <= 15 and 2 <= d < n (three graphs
/// each, the first also with random weights), sparse Erdős–Rényi graphs
/// that leave nodes isolated, and the degenerate n = 0..2 graphs.
std::vector<Graph> golden_corpus() {
  std::vector<Graph> corpus;
  corpus.emplace_back(0);
  corpus.emplace_back(1);
  corpus.emplace_back(2);
  Graph k2(2);
  k2.add_edge(0, 1);
  corpus.push_back(k2);
  Graph k2_weighted(2);
  k2_weighted.add_edge(0, 1, 0.37);
  corpus.push_back(k2_weighted);

  Rng rng(20240601);
  for (int n = 6; n <= 15; ++n) {
    for (int d = 2; d < n; ++d) {
      if (!regular_graph_exists(n, d)) continue;
      for (int k = 0; k < 3; ++k) {
        corpus.push_back(random_regular_graph(n, d, rng));
        if (k == 0) {
          corpus.push_back(
              with_random_weights(corpus.back(), 0.25, 2.0, rng));
        }
      }
    }
  }
  for (int n = 3; n <= 15; ++n) {
    corpus.push_back(erdos_renyi_graph(n, 0.15, rng));
    corpus.push_back(
        with_random_weights(erdos_renyi_graph(n, 0.3, rng), -1.0, 1.0, rng));
  }
  return corpus;
}

TEST(CanonicalGolden, CorpusCoversTheDegenerateShapes) {
  const std::vector<Graph> corpus = golden_corpus();
  int isolated = 0;
  int weighted = 0;
  int tiny = 0;
  for (const Graph& g : corpus) {
    if (g.num_nodes() > 0 && g.min_degree() == 0 && g.num_edges() > 0) {
      ++isolated;
    }
    if (!g.is_unweighted()) ++weighted;
    if (g.num_nodes() <= 2) ++tiny;
  }
  EXPECT_EQ(corpus.size(), 291u);
  EXPECT_GE(isolated, 10);
  EXPECT_GE(weighted, 70);
  EXPECT_EQ(tiny, 5);
}

TEST(CanonicalGolden, CorpusDigestsMatchRecordedValues) {
  std::uint64_t hash_digest = 0;
  std::uint64_t colors_digest = 0;
  std::uint64_t wl_digest = 0;
  for (const Graph& g : golden_corpus()) {
    hash_digest = fold(hash_digest, canonical_hash(g));
    const std::vector<std::uint64_t> colors = canonical_colors(g);
    colors_digest = fold(colors_digest, colors.size());
    for (std::uint64_t c : colors) colors_digest = fold(colors_digest, c);
    for (int iterations : {0, 1, 3, 7}) {
      wl_digest = fold(wl_digest, wl_hash(g, iterations));
    }
  }
  EXPECT_EQ(hash_digest, 0xa051d652796c6db3ULL);
  EXPECT_EQ(colors_digest, 0x8427de44168e8dc4ULL);
  EXPECT_EQ(wl_digest, 0x8057d791f35a02c0ULL);
}

TEST(CanonicalGolden, NamedValuesMatchRecordedValues) {
  const Graph two_triangles =
      from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const Graph k33 = from_edges(6, {{0, 3}, {0, 4}, {0, 5},
                                   {1, 3}, {1, 4}, {1, 5},
                                   {2, 3}, {2, 4}, {2, 5}});
  const Graph prism = from_edges(6, {{0, 1}, {1, 2}, {2, 0},
                                     {3, 4}, {4, 5}, {5, 3},
                                     {0, 3}, {1, 4}, {2, 5}});
  Graph weighted_path(4);
  weighted_path.add_edge(0, 1, 1.0);
  weighted_path.add_edge(1, 2, 2.5);
  weighted_path.add_edge(2, 3, 0.125);
  Graph k2(2);
  k2.add_edge(0, 1);
  std::uint64_t path_colors = 0;
  for (std::uint64_t c : canonical_colors(path_graph(4))) {
    path_colors = fold(path_colors, c);
  }

  const struct {
    const char* name;
    std::uint64_t actual;
    std::uint64_t expected;
  } named[] = {
      {"canonical_hash(empty)", canonical_hash(Graph(0)),
       0x9e3779b97f4a7c57ULL},
      {"canonical_hash(K1)", canonical_hash(Graph(1)), 0x76bbc8872f60ab1fULL},
      {"canonical_hash(K2)", canonical_hash(k2), 0xe64edc6faa253e33ULL},
      {"canonical_hash(C6)", canonical_hash(cycle_graph(6)),
       0x305278db773828f7ULL},
      {"canonical_hash(2xK3)", canonical_hash(two_triangles),
       0xb5745057a62ed4a4ULL},
      {"canonical_hash(K3,3)", canonical_hash(k33), 0xaf0824f7c3463675ULL},
      {"canonical_hash(prism)", canonical_hash(prism), 0x557448e31e930aadULL},
      {"canonical_hash(Petersen)", canonical_hash(petersen_graph()),
       0xdc2b302c1d9bb34bULL},
      {"canonical_hash(K5)", canonical_hash(complete_graph(5)),
       0x799898a8840c22b1ULL},
      {"canonical_hash(weighted P4)", canonical_hash(weighted_path),
       0x78221ca2a49ee662ULL},
      {"canonical_colors(P4)", path_colors, 0x1ec78ac0cd53f657ULL},
      {"wl_hash(C6)", wl_hash(cycle_graph(6)), 0x4bbccfa9d8318be5ULL},
      {"wl_hash(weighted P4)", wl_hash(weighted_path), 0x3e46faa39d0d73acULL},
      {"wl_hash(star5, 1)", wl_hash(star_graph(5), 1), 0xbdcabe25634457a5ULL},
  };
  for (const auto& v : named) {
    EXPECT_EQ(v.actual, v.expected)
        << v.name << " = 0x" << std::hex << v.actual;
  }
}

}  // namespace
}  // namespace qgnn
