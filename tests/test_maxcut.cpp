#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "maxcut/maxcut.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

TEST(CutValue, CountsCrossingEdges) {
  Graph g = path_graph(3);  // 0-1-2
  EXPECT_DOUBLE_EQ(cut_value(g, 0b000), 0.0);
  EXPECT_DOUBLE_EQ(cut_value(g, 0b010), 2.0);  // node 1 alone
  EXPECT_DOUBLE_EQ(cut_value(g, 0b001), 1.0);
  EXPECT_DOUBLE_EQ(cut_value(g, 0b111), 0.0);
}

TEST(CutValue, RespectsWeights) {
  Graph g(3);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(cut_value(g, 0b010), 3.0);
  EXPECT_DOUBLE_EQ(cut_value(g, 0b100), 0.5);
}

TEST(CutValue, ComplementGivesSameCut) {
  Rng rng(5);
  const Graph g = random_regular_graph(8, 3, rng);
  const std::uint64_t full = (1u << 8) - 1;
  for (std::uint64_t a : {0b00110101ULL, 0b11110000ULL, 0b10101010ULL}) {
    EXPECT_DOUBLE_EQ(cut_value(g, a), cut_value(g, a ^ full));
  }
}

TEST(BruteForce, KnownOptima) {
  // Even cycle: all edges cuttable. Odd cycle: n-1.
  EXPECT_DOUBLE_EQ(max_cut_brute_force(cycle_graph(6)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(cycle_graph(5)).value, 4.0);
  // Complete graph K_n: floor(n^2/4).
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(4)).value, 4.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(5)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(6)).value, 9.0);
  // Bipartite graphs cut everything.
  EXPECT_DOUBLE_EQ(max_cut_brute_force(star_graph(7)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(path_graph(8)).value, 7.0);
}

TEST(BruteForce, AssignmentAchievesReportedValue) {
  Rng rng(6);
  const Graph g = erdos_renyi_graph(9, 0.4, rng);
  const Cut c = max_cut_brute_force(g);
  EXPECT_DOUBLE_EQ(cut_value(g, c.assignment), c.value);
}

TEST(BruteForce, EdgelessAndTiny) {
  EXPECT_DOUBLE_EQ(max_cut_brute_force(Graph(4)).value, 0.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(Graph(1)).value, 0.0);
  Graph pair(2);
  pair.add_edge(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(pair).value, 3.0);
}

TEST(BruteForce, WeightedGraph) {
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  g.add_edge(3, 0, 1.0);
  // Cut {0,2} vs {1,3} crosses all edges: 12.
  EXPECT_DOUBLE_EQ(max_cut_brute_force(g).value, 12.0);
}

TEST(Greedy, AchievesAtLeastHalfTotalWeight) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = erdos_renyi_graph(10, 0.5, rng);
    const Cut c = max_cut_greedy(g);
    EXPECT_DOUBLE_EQ(cut_value(g, c.assignment), c.value);
    EXPECT_GE(c.value, g.total_weight() / 2.0);
  }
}

TEST(LocalSearch, ReachesLocalOptimum) {
  Rng rng(8);
  const Graph g = erdos_renyi_graph(10, 0.5, rng);
  const Cut c = max_cut_local_search(g, 0);
  // No single flip improves.
  for (int v = 0; v < g.num_nodes(); ++v) {
    const std::uint64_t flipped = c.assignment ^ (std::uint64_t{1} << v);
    EXPECT_LE(cut_value(g, flipped), c.value + 1e-12);
  }
}

TEST(LocalSearch, NeverBeatsOptimum) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = erdos_renyi_graph(9, 0.4, rng);
    const Cut opt = max_cut_brute_force(g);
    const Cut ls = max_cut_local_search_multistart(g, 5, rng);
    EXPECT_LE(ls.value, opt.value + 1e-12);
    EXPECT_GE(ls.value, 0.0);
  }
}

class MultistartQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(MultistartQualityTest, FindsOptimumOnSmallGraphs) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 13);
  const Graph g = erdos_renyi_graph(n, 0.5, rng);
  const Cut opt = max_cut_brute_force(g);
  const Cut ls = max_cut_local_search_multistart(g, 30, rng);
  // With 30 restarts on <=10 nodes, local search should find the optimum.
  EXPECT_DOUBLE_EQ(ls.value, opt.value);
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, MultistartQualityTest,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10));

TEST(SimulatedAnnealing, FindsOptimaOnSmallGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = erdos_renyi_graph(10, 0.5, rng);
    if (g.num_edges() == 0) continue;
    const Cut opt = max_cut_brute_force(g);
    const Cut sa = max_cut_simulated_annealing(g, 200, rng);
    EXPECT_DOUBLE_EQ(sa.value, cut_value(g, sa.assignment));
    EXPECT_LE(sa.value, opt.value + 1e-12);
    EXPECT_GE(sa.value, 0.95 * opt.value) << "trial " << trial;
  }
}

TEST(SimulatedAnnealing, HandlesNegativeWeights) {
  // All-negative weights: best cut is the empty cut (value 0).
  Graph g(4);
  g.add_edge(0, 1, -1.0);
  g.add_edge(1, 2, -2.0);
  g.add_edge(2, 3, -1.5);
  Rng rng(23);
  const Cut sa = max_cut_simulated_annealing(g, 300, rng);
  EXPECT_DOUBLE_EQ(sa.value, 0.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(g).value, 0.0);
}

TEST(SimulatedAnnealing, Validation) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  EXPECT_THROW(max_cut_simulated_annealing(g, 0, rng), InvalidArgument);
  EXPECT_THROW(max_cut_simulated_annealing(g, 10, rng, 0.1, 1.0),
               InvalidArgument);
  EXPECT_DOUBLE_EQ(max_cut_simulated_annealing(Graph(3), 5, rng).value, 0.0);
}

TEST(BruteForce, NegativeWeightsSupported) {
  // Mixed signs: maximize sum of crossing weights; the solver must prefer
  // cutting the positive edge and not the negative one.
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, -1.0);
  const Cut opt = max_cut_brute_force(g);
  EXPECT_DOUBLE_EQ(opt.value, 2.0);
}

TEST(ApproximationRatio, Conventions) {
  EXPECT_DOUBLE_EQ(approximation_ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(approximation_ratio(0.0, 0.0), 1.0);
  EXPECT_THROW(approximation_ratio(1.0, -1.0), InvalidArgument);
}

TEST(RandomCutExpectation, HalfTotalWeight) {
  const Graph g = complete_graph(6);
  EXPECT_DOUBLE_EQ(random_cut_expectation(g), 7.5);
}

TEST(BruteForce, RejectsOversizedGraph) {
  EXPECT_THROW(max_cut_brute_force(Graph(27)), InvalidArgument);
}

// The heuristics on a graph with real weights of both signs, pinned to
// the assignments and exact values recorded when they read each weight
// with Graph::edge_weight, so reading them any other way keeps every
// sum's order.
Graph pinned_weighted_graph() {
  Rng rng(71);
  return with_random_weights(random_regular_graph(14, 5, rng), -0.5, 2.0,
                             rng);
}

TEST(Greedy, WeightedOutputIsPinned) {
  const Cut c = max_cut_greedy(pinned_weighted_graph());
  EXPECT_EQ(c.assignment, 0x23f0u);
  EXPECT_EQ(c.value, 0x1.1901d0638b7dbp+4);
}

TEST(LocalSearch, WeightedOutputIsPinned) {
  const Graph g = pinned_weighted_graph();
  const Cut c = max_cut_local_search(g, 0x2a5b);
  EXPECT_EQ(c.assignment, 0x23d8u);
  EXPECT_EQ(c.value, 0x1.20063f0d1c8cap+4);
  Rng rng(72);
  const Cut best = max_cut_local_search_multistart(g, 6, rng);
  EXPECT_EQ(best.assignment, 0xe65u);
  EXPECT_EQ(best.value, 0x1.285416cd8b807p+4);
}

TEST(SimulatedAnnealing, WeightedOutputIsPinned) {
  Rng rng(73);
  const Cut c = max_cut_simulated_annealing(pinned_weighted_graph(), 40, rng);
  EXPECT_EQ(c.assignment, 0x118fu);
  EXPECT_EQ(c.value, 0x1.1e9a1f531e347p+4);
}

}  // namespace
}  // namespace qgnn
