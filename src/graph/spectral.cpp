#include "graph/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace qgnn {

std::vector<double> adjacency_matrix(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> a(n * n, 0.0);
  for (const Edge& e : g.edges()) {
    a[static_cast<std::size_t>(e.u) * n + static_cast<std::size_t>(e.v)] =
        e.weight;
    a[static_cast<std::size_t>(e.v) * n + static_cast<std::size_t>(e.u)] =
        e.weight;
  }
  return a;
}

std::vector<double> laplacian_matrix(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> l = adjacency_matrix(g);
  for (int v = 0; v < g.num_nodes(); ++v) {
    double* row = l.data() + static_cast<std::size_t>(v) * n;
    double weighted_degree = 0.0;
    for (int u : g.neighbors(v)) {
      weighted_degree += row[static_cast<std::size_t>(u)];
    }
    for (std::size_t c = 0; c < n; ++c) row[c] = -row[c];
    row[v] = weighted_degree;
  }
  return l;
}

EigenResult jacobi_eigen(std::vector<double> a, int n, int max_sweeps,
                         double tolerance) {
  QGNN_REQUIRE(n >= 1, "empty matrix");
  QGNN_REQUIRE(a.size() == static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
               "matrix size mismatch");
  const auto N = static_cast<std::size_t>(n);
  // Symmetry check (cheap insurance against caller bugs).
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      QGNN_REQUIRE(std::abs(a[i * N + j] - a[j * N + i]) < 1e-9,
                   "jacobi_eigen requires a symmetric matrix");
    }
  }

  std::vector<double> v(N * N, 0.0);
  for (std::size_t i = 0; i < N; ++i) v[i * N + i] = 1.0;

  auto off_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
      for (std::size_t j = i + 1; j < N; ++j) {
        s += a[i * N + j] * a[i * N + j];
      }
    }
    return std::sqrt(2.0 * s);
  };

  for (int sweep = 0; sweep < max_sweeps && off_norm() > tolerance;
       ++sweep) {
    for (std::size_t p = 0; p + 1 < N; ++p) {
      for (std::size_t q = p + 1; q < N; ++q) {
        const double apq = a[p * N + q];
        if (std::abs(apq) < tolerance / static_cast<double>(N)) continue;
        const double app = a[p * N + p];
        const double aqq = a[q * N + q];
        // Rotation angle that annihilates a[p][q].
        const double theta = 0.5 * std::atan2(2.0 * apq, aqq - app);
        const double c = std::cos(theta);
        const double s = std::sin(theta);
        // A <- J^T A J applied to rows/cols p, q.
        for (std::size_t k = 0; k < N; ++k) {
          const double akp = a[k * N + p];
          const double akq = a[k * N + q];
          a[k * N + p] = c * akp - s * akq;
          a[k * N + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < N; ++k) {
          const double apk = a[p * N + k];
          const double aqk = a[q * N + k];
          a[p * N + k] = c * apk - s * aqk;
          a[q * N + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < N; ++k) {
          const double vkp = v[k * N + p];
          const double vkq = v[k * N + q];
          v[k * N + p] = c * vkp - s * vkq;
          v[k * N + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Collect and sort by eigenvalue.
  std::vector<int> order(N);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    return a[static_cast<std::size_t>(x) * N + static_cast<std::size_t>(x)] <
           a[static_cast<std::size_t>(y) * N + static_cast<std::size_t>(y)];
  });

  EigenResult result;
  result.n = n;
  result.values.resize(N);
  result.vectors.assign(N * N, 0.0);
  for (std::size_t k = 0; k < N; ++k) {
    const auto src = static_cast<std::size_t>(order[k]);
    result.values[k] = a[src * N + src];
    for (std::size_t row = 0; row < N; ++row) {
      result.vectors[row * N + k] = v[row * N + src];
    }
  }
  return result;
}

std::vector<double> laplacian_spectrum(const Graph& g) {
  QGNN_REQUIRE(g.num_nodes() >= 1, "empty graph");
  return jacobi_eigen(laplacian_matrix(g), g.num_nodes()).values;
}

double algebraic_connectivity(const Graph& g) {
  QGNN_REQUIRE(g.num_nodes() >= 2, "connectivity needs >= 2 nodes");
  return laplacian_spectrum(g)[1];
}

}  // namespace qgnn
