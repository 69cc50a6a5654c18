#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/fixed_angles.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(QaoaParams, FlattenRoundTrip) {
  const QaoaParams p({0.1, 0.2}, {0.3, 0.4});
  EXPECT_EQ(p.depth(), 2);
  const auto flat = p.flatten();
  ASSERT_EQ(flat.size(), 4u);
  const QaoaParams q = QaoaParams::from_flat(flat);
  EXPECT_EQ(q.gammas, p.gammas);
  EXPECT_EQ(q.betas, p.betas);
}

TEST(QaoaParams, Validation) {
  EXPECT_THROW(QaoaParams({0.1}, {0.2, 0.3}), InvalidArgument);
  EXPECT_THROW(QaoaParams({}, {}), InvalidArgument);
  EXPECT_THROW(QaoaParams::from_flat({0.1, 0.2, 0.3}), InvalidArgument);
}

TEST(Ansatz, ZeroAnglesGiveRandomCutExpectation) {
  // gamma = beta = 0 leaves |+>^n: <C> = total_weight / 2.
  const Graph g = cycle_graph(6);
  const QaoaAnsatz ansatz(g);
  EXPECT_NEAR(ansatz.expectation(QaoaParams::single(0.0, 0.0)),
              g.total_weight() / 2.0, 1e-12);
}

TEST(Ansatz, SingleEdgeAnalyticFormula) {
  // For K2: <C>(gamma, beta) = 1/2 + 1/2 sin(4 beta) sin(gamma).
  Graph g(2);
  g.add_edge(0, 1);
  const QaoaAnsatz ansatz(g);
  for (double gamma : {0.2, 0.7, 1.3, 2.9}) {
    for (double beta : {0.1, 0.4, kPi / 8, 1.2}) {
      const double expected =
          0.5 + 0.5 * std::sin(4.0 * beta) * std::sin(gamma);
      EXPECT_NEAR(ansatz.expectation(QaoaParams::single(gamma, beta)),
                  expected, 1e-10)
          << "gamma=" << gamma << " beta=" << beta;
    }
  }
}

TEST(Ansatz, SingleEdgeOptimalAtFixedAngles) {
  Graph g(2);
  g.add_edge(0, 1);
  const QaoaAnsatz ansatz(g);
  // Fixed angles for degree 1: gamma = pi/2, beta = pi/8 -> AR = 1.
  const auto angles = fixed_angles(1, 1);
  ASSERT_TRUE(angles.has_value());
  EXPECT_NEAR(ansatz.approximation_ratio(*angles), 1.0, 1e-10);
}

class TriangleFreeCutFractionTest : public ::testing::TestWithParam<int> {};

TEST_P(TriangleFreeCutFractionTest, CycleMatchesClosedForm) {
  // Even cycles are 2-regular and triangle-free for n >= 4: the p=1
  // closed form must match simulation exactly.
  const int n = GetParam();
  const Graph g = cycle_graph(n);
  const QaoaAnsatz ansatz(g);
  const auto angles = fixed_angles(2, 1);
  ASSERT_TRUE(angles.has_value());
  const double per_edge = ansatz.expectation(*angles) /
                          static_cast<double>(g.num_edges());
  EXPECT_NEAR(per_edge, p1_triangle_free_cut_fraction(2), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(CycleSweep, TriangleFreeCutFractionTest,
                         ::testing::Values(4, 5, 6, 7, 8, 10, 12));

TEST(Ansatz, ThreeRegularFixedAnglesNearKnownValue) {
  // 3-regular triangle-free: closed form gives ~0.6924 cut fraction.
  EXPECT_NEAR(p1_triangle_free_cut_fraction(3), 0.6924, 5e-4);
  // K_{3,3} is 3-regular, triangle-free.
  Graph g(6);
  for (int u = 0; u < 3; ++u) {
    for (int v = 3; v < 6; ++v) g.add_edge(u, v);
  }
  const QaoaAnsatz ansatz(g);
  const auto angles = fixed_angles(3, 1);
  ASSERT_TRUE(angles.has_value());
  const double per_edge = ansatz.expectation(*angles) / 9.0;
  EXPECT_NEAR(per_edge, p1_triangle_free_cut_fraction(3), 1e-10);
}

TEST(Ansatz, FastPathMatchesExplicitCircuit) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = random_regular_graph(6, 3, rng);
    const QaoaAnsatz ansatz(g);
    const QaoaParams params({rng.uniform(0, 6.28), rng.uniform(0, 6.28)},
                            {rng.uniform(0, 3.14), rng.uniform(0, 3.14)});
    const StateVector fast = ansatz.prepare_state(params);
    const StateVector slow = qaoa_circuit(g, params).simulate_from_plus();
    // Equal up to global phase.
    EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-10);
    // And expectations agree exactly.
    EXPECT_NEAR(ansatz.engine().expectation_of(fast),
                ansatz.engine().expectation_of(slow), 1e-10);
  }
}

TEST(Ansatz, WeightedGraphFastPathMatchesCircuit) {
  Rng rng(13);
  Graph g = with_random_weights(cycle_graph(5), 0.2, 1.8, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = QaoaParams::single(0.9, 0.35);
  const StateVector fast = ansatz.prepare_state(params);
  const StateVector slow = qaoa_circuit(g, params).simulate_from_plus();
  EXPECT_NEAR(fast.fidelity(slow), 1.0, 1e-10);
}

TEST(Ansatz, ApproximationRatioBounds) {
  Rng rng(17);
  const Graph g = random_regular_graph(8, 3, rng);
  const QaoaAnsatz ansatz(g);
  for (int trial = 0; trial < 20; ++trial) {
    const QaoaParams params =
        QaoaParams::single(rng.uniform(0, 6.28), rng.uniform(0, 3.14));
    const double ar = ansatz.approximation_ratio(params);
    EXPECT_GT(ar, 0.0);
    EXPECT_LE(ar, 1.0 + 1e-12);
  }
}

TEST(Ansatz, DeeperCircuitsCanOnlyHelpAtOptimum) {
  // The p=2 optimum is at least the p=1 optimum (p=1 embeds in p=2 with a
  // zero second layer). Check at the embedded point.
  const Graph g = cycle_graph(6);
  const QaoaAnsatz ansatz(g);
  const QaoaParams p1 = *fixed_angles(2, 1);
  const QaoaParams p2({p1.gammas[0], 0.0}, {p1.betas[0], 0.0});
  EXPECT_NEAR(ansatz.expectation(p2), ansatz.expectation(p1), 1e-10);
}

TEST(Ansatz, CircuitGateCounts) {
  const Circuit c =
      qaoa_circuit(cycle_graph(5), QaoaParams::single(0.5, 0.25));
  // p=1: one RZZ per edge + one RX per node.
  EXPECT_EQ(c.two_qubit_gate_count(), 5u);
  EXPECT_EQ(c.size(), 10u);
}

TEST(Ansatz, ExpectationInvariantUnderNodeRelabeling) {
  // Physics + implementation check: relabeling the nodes of the problem
  // graph cannot change <C> at any parameter point (the cost table, the
  // phase application, and the mixer must all be permutation covariant).
  Rng rng(23);
  const Graph g = random_regular_graph(7, 4, rng);
  std::vector<int> perm{3, 0, 6, 1, 5, 2, 4};
  const Graph gp = g.permuted(perm);
  const QaoaAnsatz a(g);
  const QaoaAnsatz b(gp);
  for (double gamma : {0.3, 1.1, 4.9}) {
    for (double beta : {0.2, 0.39, 2.5}) {
      const QaoaParams params = QaoaParams::single(gamma, beta);
      EXPECT_NEAR(a.expectation(params), b.expectation(params), 1e-10);
    }
  }
}

TEST(Ansatz, DisjointUnionExpectationIsAdditive) {
  // QAOA factorizes over connected components: <C> of a disjoint union
  // equals the sum of per-component expectations.
  Graph combined(7);  // triangle on {0,1,2} + square on {3,4,5,6}
  combined.add_edge(0, 1);
  combined.add_edge(1, 2);
  combined.add_edge(0, 2);
  combined.add_edge(3, 4);
  combined.add_edge(4, 5);
  combined.add_edge(5, 6);
  combined.add_edge(3, 6);
  const QaoaAnsatz whole(combined);
  const QaoaAnsatz triangle(cycle_graph(3));
  const QaoaAnsatz square(cycle_graph(4));
  const QaoaParams params = QaoaParams::single(0.7, 0.3);
  EXPECT_NEAR(whole.expectation(params),
              triangle.expectation(params) + square.expectation(params),
              1e-9);
}

TEST(Ansatz, BetaPeriodicityPi) {
  // For the mixer, beta and beta + pi give identical expectations.
  const Graph g = cycle_graph(5);
  const QaoaAnsatz ansatz(g);
  const double e1 = ansatz.expectation(QaoaParams::single(0.8, 0.3));
  const double e2 = ansatz.expectation(QaoaParams::single(0.8, 0.3 + kPi));
  EXPECT_NEAR(e1, e2, 1e-10);
}

TEST(Ansatz, GammaPeriodicityTwoPiUnweighted) {
  const Graph g = cycle_graph(5);
  const QaoaAnsatz ansatz(g);
  const double e1 = ansatz.expectation(QaoaParams::single(0.8, 0.3));
  const double e2 =
      ansatz.expectation(QaoaParams::single(0.8 + 2 * kPi, 0.3));
  EXPECT_NEAR(e1, e2, 1e-10);
}

}  // namespace
}  // namespace qgnn
