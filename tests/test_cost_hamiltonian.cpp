#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "maxcut/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/rqaoa.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

// The cost Hamiltonian C of the Max-Cut ansatz, as the cut table that
// QaoaAnsatz builds and hands to its QaoaEvalEngine.

TEST(CutTable, DiagonalMatchesCutValues) {
  Rng rng(3);
  const Graph g = erdos_renyi_graph(6, 0.5, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaEvalEngine& cost = ansatz.engine();
  for (std::uint64_t x = 0; x < cost.dimension(); ++x) {
    EXPECT_DOUBLE_EQ(cost.diagonal()[x], cut_value(g, x)) << "state " << x;
  }
}

TEST(CutTable, WeightedDiagonal) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 0.25);
  const QaoaAnsatz ansatz(g);
  const std::span<const double> cost = ansatz.engine().diagonal();
  EXPECT_DOUBLE_EQ(cost[0b010], 2.25);
  EXPECT_DOUBLE_EQ(cost[0b001], 2.0);
  EXPECT_DOUBLE_EQ(cost[0b100], 0.25);
  EXPECT_DOUBLE_EQ(cost[0b000], 0.0);
}

class MaxValueTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxValueTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = erdos_renyi_graph(GetParam(), 0.5, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaEvalEngine& cost = ansatz.engine();
  const Cut opt = max_cut_brute_force(g);
  EXPECT_DOUBLE_EQ(cost.max_value(), opt.value);
  EXPECT_DOUBLE_EQ(cost.diagonal()[cost.argmax()], cost.max_value());
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, MaxValueTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(CutTable, ApplyPhasePreservesNormAndProbabilities) {
  const QaoaAnsatz ansatz(cycle_graph(5));
  StateVector s = StateVector::plus_state(5);
  s.apply_diagonal_phase(ansatz.engine().diagonal(), 0.83);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_NEAR(s.probability(k), 1.0 / 32.0, 1e-12);
  }
}

TEST(CutTable, ExpectationOnBasisStates) {
  const QaoaAnsatz ansatz(path_graph(3));
  const QaoaEvalEngine& cost = ansatz.engine();
  for (std::uint64_t x = 0; x < 8; ++x) {
    const StateVector s = StateVector::basis_state(3, x);
    EXPECT_NEAR(cost.expectation_of(s), cost.diagonal()[x], 1e-12);
  }
}

TEST(CutTable, ExpectationOnPlusStateIsHalfWeight) {
  // <+|C|+> = sum_e w_e / 2 (each edge crossed with prob 1/2).
  Graph g(4);
  g.add_edge(0, 1, 1.5);
  g.add_edge(2, 3, 2.0);
  g.add_edge(0, 3, 1.0);
  const QaoaAnsatz ansatz(g);
  const StateVector s = StateVector::plus_state(4);
  EXPECT_NEAR(ansatz.engine().expectation_of(s), g.total_weight() / 2.0,
              1e-12);
}

TEST(CutTable, MismatchedStateThrows) {
  const QaoaAnsatz ansatz(cycle_graph(4));
  StateVector s(3);
  EXPECT_THROW(s.apply_diagonal_phase(ansatz.engine().diagonal(), 0.1),
               InvalidArgument);
  EXPECT_THROW(ansatz.engine().expectation_of(s), InvalidArgument);
}

TEST(CutTable, RejectsGraphsOutsideTheSimulableRange) {
  // Checked before any table is allocated, on both build paths.
  Graph weighted(kMaxQubits + 1);
  weighted.add_edge(0, 1, 2.0);
  EXPECT_THROW(QaoaAnsatz{Graph(0)}, InvalidArgument);
  EXPECT_THROW(QaoaAnsatz{Graph(kMaxQubits + 1)}, InvalidArgument);
  EXPECT_THROW(QaoaAnsatz{weighted}, InvalidArgument);
}

TEST(CutTable, EdgelessGraphHasZeroCost) {
  const QaoaAnsatz ansatz(Graph(3));
  const QaoaEvalEngine& cost = ansatz.engine();
  EXPECT_DOUBLE_EQ(cost.max_value(), 0.0);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_DOUBLE_EQ(cost.diagonal()[x], 0.0);
  }
}

// ---- pinned tables ------------------------------------------------------
//
// Every warm start is scored by <C> / max-cut, and both numbers come from
// the cut table; a faster build must reproduce every table bit for bit.
// The digests below were recorded from the per-edge build (one pass over
// the 2^n states per edge, then separate scans for the maximum and the
// phase-table levels). Each covers a table's diagonal bytes, max_value,
// argmax, num_levels and phase_table_active. The seeded corpora depend on
// Rng, i.e. std::mt19937_64 plus the standard library's distributions.

/// Order-sensitive 64-bit fold (FNV-1a over words, then a finalizer mix).
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ULL;
  return h ^ (h >> 29);
}

std::uint64_t cost_digest(const std::vector<Graph>& graphs) {
  std::uint64_t h = 0;
  for (const Graph& g : graphs) {
    const QaoaAnsatz ansatz(g);
    const QaoaEvalEngine& engine = ansatz.engine();
    const std::span<const double> diag = engine.diagonal();
    h = fold(h, diag.size());
    h = fold(h, crc32_ieee(diag.data(), diag.size() * sizeof(double)));
    h = fold(h, std::bit_cast<std::uint64_t>(engine.max_value()));
    h = fold(h, engine.argmax());
    h = fold(h, engine.num_levels());
    h = fold(h, engine.phase_table_active() ? 1 : 0);
  }
  return h;
}

/// Three graphs of every d-regular class with 6 <= n <= 15, 1 <= d < n.
std::vector<Graph> regular_corpus() {
  std::vector<Graph> corpus;
  Rng rng(20261019);
  for (int n = 6; n <= 15; ++n) {
    for (int d = 1; d < n; ++d) {
      if (!regular_graph_exists(n, d)) continue;
      for (int k = 0; k < 3; ++k) {
        corpus.push_back(random_regular_graph(n, d, rng));
      }
    }
  }
  return corpus;
}

/// Sparse and dense Erdős–Rényi graphs; the sparse ones leave nodes
/// isolated.
std::vector<Graph> erdos_renyi_corpus() {
  std::vector<Graph> corpus;
  Rng rng(31);
  for (int n = 3; n <= 15; ++n) {
    corpus.push_back(erdos_renyi_graph(n, 0.15, rng));
    corpus.push_back(erdos_renyi_graph(n, 0.6, rng));
  }
  return corpus;
}

/// n = 1 and n = 2, edgeless graphs, and small named shapes.
std::vector<Graph> tiny_corpus() {
  std::vector<Graph> corpus;
  corpus.emplace_back(1);
  corpus.emplace_back(2);
  Graph k2(2);
  k2.add_edge(0, 1);
  corpus.push_back(k2);
  corpus.emplace_back(5);
  corpus.emplace_back(12);
  corpus.push_back(path_graph(3));
  corpus.push_back(star_graph(7));
  corpus.push_back(complete_graph(9));
  return corpus;
}

/// n = 16..20, up to the simulator's qubit limit.
std::vector<Graph> large_corpus() {
  std::vector<Graph> corpus;
  Rng rng(16);
  corpus.push_back(random_regular_graph(16, 5, rng));
  corpus.push_back(erdos_renyi_graph(17, 0.2, rng));
  corpus.push_back(random_regular_graph(18, 3, rng));
  corpus.push_back(erdos_renyi_graph(19, 0.1, rng));
  corpus.push_back(random_regular_graph(20, 3, rng));
  return corpus;
}

/// Integer weights, including negative ones: random integer weights on
/// regular and Erdős–Rényi graphs, a constant weight of 2, and the signed
/// graphs that RQAOA's contractions produce.
std::vector<Graph> integer_weight_corpus() {
  std::vector<Graph> corpus;
  Rng rng(47);
  const auto reweighted = [&rng](const Graph& g, int lo, int hi) {
    Graph h(g.num_nodes());
    for (const Edge& e : g.edges()) {
      int w = 0;
      while (w == 0) w = rng.uniform_int(lo, hi);
      h.add_edge(e.u, e.v, static_cast<double>(w));
    }
    return h;
  };
  for (int n = 6; n <= 14; n += 2) {
    corpus.push_back(reweighted(random_regular_graph(n, 3, rng), 1, 4));
    corpus.push_back(reweighted(random_regular_graph(n, 4, rng), -3, 3));
    corpus.push_back(reweighted(erdos_renyi_graph(n + 1, 0.4, rng), -2, 5));
  }
  const Graph cubic = random_regular_graph(8, 3, rng);
  Graph twos(8);
  for (const Edge& e : cubic.edges()) twos.add_edge(e.u, e.v, 2.0);
  corpus.push_back(twos);
  Graph contracted = random_regular_graph(12, 3, rng);
  for (int round = 0; round < 4; ++round) {
    const Edge e = contracted.edges().front();
    contracted = contract_edge(contracted, e.u, e.v, round % 2 ? 1 : -1).graph;
    corpus.push_back(contracted);
  }
  return corpus;
}

/// Non-integer weights, positive and of mixed sign.
std::vector<Graph> real_weight_corpus() {
  std::vector<Graph> corpus;
  Rng rng(53);
  Graph k2(2);
  k2.add_edge(0, 1, 0.37);
  corpus.push_back(k2);
  for (int n = 6; n <= 15; n += 3) {
    corpus.push_back(
        with_random_weights(random_regular_graph(n, 4, rng), 0.25, 2.0, rng));
    corpus.push_back(
        with_random_weights(erdos_renyi_graph(n, 0.3, rng), -1.0, 1.0, rng));
  }
  corpus.push_back(
      with_random_weights(random_regular_graph(16, 4, rng), 0.1, 3.0, rng));
  return corpus;
}

TEST(CutTable, PinnedCorporaCoverTheirShapes) {
  const std::vector<Graph> regular = regular_corpus();
  EXPECT_EQ(regular.size(), 3u * 70u);
  int isolated = 0;
  for (const Graph& g : erdos_renyi_corpus()) {
    if (g.num_edges() > 0 && g.min_degree() == 0) ++isolated;
  }
  EXPECT_GE(isolated, 5);
  int negative = 0;
  for (const Graph& g : integer_weight_corpus()) {
    for (const Edge& e : g.edges()) negative += e.weight < 0.0 ? 1 : 0;
  }
  EXPECT_GE(negative, 10);
  for (const Graph& g : real_weight_corpus()) EXPECT_FALSE(g.is_unweighted());
}

TEST(CutTable, TablesMatchPinnedDigests) {
  EXPECT_EQ(cost_digest(regular_corpus()), 0xf3395cad77cb3c64ULL);
  EXPECT_EQ(cost_digest(erdos_renyi_corpus()), 0xa12e41fc8be2140fULL);
  EXPECT_EQ(cost_digest(tiny_corpus()), 0xd3d3c13df45e89acULL);
  EXPECT_EQ(cost_digest(large_corpus()), 0x2465940669bfe840ULL);
  EXPECT_EQ(cost_digest(integer_weight_corpus()), 0xfd43991760507eabULL);
  EXPECT_EQ(cost_digest(real_weight_corpus()), 0x823f65c566961561ULL);
}

}  // namespace
}  // namespace qgnn
