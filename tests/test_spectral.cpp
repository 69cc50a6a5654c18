#include <gtest/gtest.h>

#include <cmath>

#include "gnn/model.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Matrices, AdjacencyAndLaplacianStructure) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 0.5);
  const auto a = adjacency_matrix(g);
  EXPECT_DOUBLE_EQ(a[0 * 3 + 1], 2.0);
  EXPECT_DOUBLE_EQ(a[1 * 3 + 0], 2.0);
  EXPECT_DOUBLE_EQ(a[0 * 3 + 2], 0.0);
  const auto l = laplacian_matrix(g);
  EXPECT_DOUBLE_EQ(l[0 * 3 + 0], 2.0);
  EXPECT_DOUBLE_EQ(l[1 * 3 + 1], 2.5);
  EXPECT_DOUBLE_EQ(l[0 * 3 + 1], -2.0);
  // Rows sum to zero.
  for (int r = 0; r < 3; ++r) {
    double s = 0.0;
    for (int c = 0; c < 3; ++c) s += l[static_cast<std::size_t>(r * 3 + c)];
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
}

TEST(Matrices, WeightedLaplacianIsPinned) {
  // Real weights whose degree sums depend on the summation order: the
  // diagonal is pinned to the bits recorded when each weight was read
  // with Graph::edge_weight in neighbour order.
  Rng rng(74);
  const Graph g =
      with_random_weights(random_regular_graph(9, 4, rng), -1.0, 3.0, rng);
  const auto l = laplacian_matrix(g);
  double trace = 0.0;
  for (int v = 0; v < 9; ++v) {
    trace += l[static_cast<std::size_t>(v * 9 + v)];
  }
  EXPECT_EQ(l[0], 0x1.cf2d65f0084ecp+1);
  EXPECT_EQ(l[4 * 9 + 4], 0x1.b7f2f08f9bc03p+0);
  EXPECT_EQ(trace, 0x1.bb7219ad9e9abp+4);
  EXPECT_NEAR(trace, 2.0 * g.total_weight(), 1e-12);
}

TEST(Jacobi, DiagonalMatrixIsItsOwnSpectrum) {
  const std::vector<double> d{3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0};
  const EigenResult r = jacobi_eigen(d, 3);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Jacobi, TwoByTwoKnownResult) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  const EigenResult r = jacobi_eigen({2.0, 1.0, 1.0, 2.0}, 2);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(Jacobi, RejectsAsymmetricInput) {
  EXPECT_THROW(jacobi_eigen({1.0, 2.0, 3.0, 4.0}, 2), InvalidArgument);
  EXPECT_THROW(jacobi_eigen({1.0}, 2), InvalidArgument);
}

class JacobiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiPropertyTest, EigenpairsSatisfyDefinition) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  // Random symmetric matrix.
  std::vector<double> m(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.uniform(-2.0, 2.0);
      m[static_cast<std::size_t>(i * n + j)] = v;
      m[static_cast<std::size_t>(j * n + i)] = v;
    }
  }
  const EigenResult r = jacobi_eigen(m, n);

  // 1. Ascending eigenvalues.
  for (int k = 1; k < n; ++k) EXPECT_GE(r.values[k], r.values[k - 1] - 1e-9);

  // 2. A v_k = lambda_k v_k.
  for (int k = 0; k < n; ++k) {
    for (int row = 0; row < n; ++row) {
      double av = 0.0;
      for (int col = 0; col < n; ++col) {
        av += m[static_cast<std::size_t>(row * n + col)] *
              r.vector_entry(col, k);
      }
      EXPECT_NEAR(av, r.values[k] * r.vector_entry(row, k), 1e-8)
          << "k=" << k << " row=" << row;
    }
  }

  // 3. Orthonormal eigenvectors.
  for (int k1 = 0; k1 < n; ++k1) {
    for (int k2 = k1; k2 < n; ++k2) {
      double dot = 0.0;
      for (int row = 0; row < n; ++row) {
        dot += r.vector_entry(row, k1) * r.vector_entry(row, k2);
      }
      EXPECT_NEAR(dot, k1 == k2 ? 1.0 : 0.0, 1e-9);
    }
  }

  // 4. Trace preserved.
  double trace = 0.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    trace += m[static_cast<std::size_t>(i * n + i)];
    sum += r.values[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, JacobiPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 15));

TEST(LaplacianSpectrum, KnownSpectra) {
  // K_n: eigenvalue 0 once and n with multiplicity n-1.
  const auto kn = laplacian_spectrum(complete_graph(5));
  EXPECT_NEAR(kn[0], 0.0, 1e-9);
  for (int k = 1; k < 5; ++k) EXPECT_NEAR(kn[static_cast<std::size_t>(k)], 5.0, 1e-9);

  // C_n: 2 - 2 cos(2 pi k / n).
  const int n = 6;
  auto cycle = laplacian_spectrum(cycle_graph(n));
  std::vector<double> expected;
  for (int k = 0; k < n; ++k) {
    expected.push_back(2.0 - 2.0 * std::cos(2.0 * kPi * k / n));
  }
  std::sort(expected.begin(), expected.end());
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(cycle[static_cast<std::size_t>(k)],
                expected[static_cast<std::size_t>(k)], 1e-9);
  }

  // Star S_n: 0, 1 (n-2 times), n.
  const auto star = laplacian_spectrum(star_graph(5));
  EXPECT_NEAR(star[0], 0.0, 1e-9);
  EXPECT_NEAR(star[1], 1.0, 1e-9);
  EXPECT_NEAR(star[4], 5.0, 1e-9);
}

TEST(AlgebraicConnectivity, DetectsDisconnection) {
  EXPECT_GT(algebraic_connectivity(cycle_graph(6)), 0.1);
  Graph disconnected(4);
  disconnected.add_edge(0, 1);
  disconnected.add_edge(2, 3);
  EXPECT_NEAR(algebraic_connectivity(disconnected), 0.0, 1e-9);
  // Complete graph is maximally connected: lambda_2 = n.
  EXPECT_NEAR(algebraic_connectivity(complete_graph(6)), 6.0, 1e-9);
}

TEST(SpectralFeatures, BatchHasEigenvectorColumns) {
  const Graph g = cycle_graph(5);
  const FeatureConfig config{NodeFeatureKind::kLaplacianEigen, 15};
  EXPECT_EQ(config.dimension(), 16);
  const GraphBatch b = make_graph_batch(g, config);
  EXPECT_EQ(b.features.cols(), 16u);
  // Column 0: degree / 15.
  EXPECT_NEAR(b.features(0, 0), 2.0 / 15.0, 1e-12);
  // Column 1: the constant eigenvector (eigenvalue 0): entries +-1/sqrt(5)
  // all equal.
  for (int v = 1; v < 5; ++v) {
    EXPECT_NEAR(std::abs(b.features(static_cast<std::size_t>(v), 1)),
                1.0 / std::sqrt(5.0), 1e-9);
    EXPECT_NEAR(b.features(static_cast<std::size_t>(v), 1),
                b.features(0, 1), 1e-9);
  }
  // Columns beyond n+1 are zero padding.
  EXPECT_DOUBLE_EQ(b.features(0, 7), 0.0);
}

TEST(SpectralFeatures, ModelTrainsWithThem) {
  Rng rng(8);
  GnnModelConfig config;
  config.arch = GnnArch::kGCN;
  config.features.kind = NodeFeatureKind::kLaplacianEigen;
  config.hidden_dim = 8;
  const GnnModel model(config, rng);
  const Matrix pred = model.predict(cycle_graph(6));
  EXPECT_EQ(pred.cols(), 2u);
}

}  // namespace
}  // namespace qgnn
