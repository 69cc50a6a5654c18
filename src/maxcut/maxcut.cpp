#include "maxcut/maxcut.hpp"

#include <algorithm>
#include <cmath>

#include "graph/spectral.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace {

/// Edge weights by (node, neighbour), read from one adjacency matrix per
/// call instead of a scan of the edge list for every pair. The matrix
/// holds each edge's weight as given, so every sum keeps its bits.
class WeightMatrix {
 public:
  explicit WeightMatrix(const Graph& g)
      : n_(static_cast<std::size_t>(g.num_nodes())), a_(adjacency_matrix(g)) {}
  double operator()(int v, int u) const {
    return a_[static_cast<std::size_t>(v) * n_ + static_cast<std::size_t>(u)];
  }

 private:
  std::size_t n_;
  std::vector<double> a_;
};

}  // namespace

double cut_value(const Graph& g, std::uint64_t assignment) {
  double value = 0.0;
  for (const Edge& e : g.edges()) {
    const bool su = (assignment >> e.u) & 1;
    const bool sv = (assignment >> e.v) & 1;
    if (su != sv) value += e.weight;
  }
  return value;
}

Cut max_cut_brute_force(const Graph& g) {
  const int n = g.num_nodes();
  QGNN_REQUIRE(n >= 0 && n <= 26, "brute force limited to 26 nodes");
  if (n <= 1 || g.num_edges() == 0) return Cut{0, 0.0};

  Cut best{0, 0.0};
  // Fix node 0 on side 0: complementary assignments give equal cuts.
  const std::uint64_t limit = std::uint64_t{1} << (n - 1);
  for (std::uint64_t half = 0; half < limit; ++half) {
    const std::uint64_t assignment = half << 1;
    const double v = cut_value(g, assignment);
    if (v > best.value) best = Cut{assignment, v};
  }
  return best;
}

Cut max_cut_greedy(const Graph& g) {
  const int n = g.num_nodes();
  const WeightMatrix weight(g);
  std::uint64_t assignment = 0;
  // Node v joins the side maximizing crossing weight to nodes < v.
  for (int v = 1; v < n; ++v) {
    double gain_side1 = 0.0;  // crossing weight if v goes to side 1
    for (int u : g.neighbors(v)) {
      if (u >= v) continue;
      const bool su = (assignment >> u) & 1;
      const double w = weight(v, u);
      gain_side1 += su ? -w : w;
    }
    if (gain_side1 > 0.0) assignment |= std::uint64_t{1} << v;
  }
  return Cut{assignment, cut_value(g, assignment)};
}

Cut max_cut_local_search(const Graph& g, std::uint64_t start) {
  const int n = g.num_nodes();
  const WeightMatrix weight(g);
  std::uint64_t assignment = start;
  bool improved = true;
  while (improved) {
    improved = false;
    for (int v = 0; v < n; ++v) {
      // Gain of flipping v = (non-crossing incident weight) - (crossing).
      double gain = 0.0;
      const bool sv = (assignment >> v) & 1;
      for (int u : g.neighbors(v)) {
        const bool su = (assignment >> u) & 1;
        const double w = weight(v, u);
        gain += (su == sv) ? w : -w;
      }
      if (gain > 1e-12) {
        assignment ^= std::uint64_t{1} << v;
        improved = true;
      }
    }
  }
  return Cut{assignment, cut_value(g, assignment)};
}

Cut max_cut_local_search_multistart(const Graph& g, int restarts, Rng& rng) {
  QGNN_REQUIRE(restarts >= 1, "need at least one restart");
  const int n = g.num_nodes();
  Cut best{0, -1.0};
  for (int r = 0; r < restarts; ++r) {
    std::uint64_t start = 0;
    for (int v = 0; v < n; ++v) {
      if (rng.bernoulli(0.5)) start |= std::uint64_t{1} << v;
    }
    const Cut c = max_cut_local_search(g, start);
    if (c.value > best.value) best = c;
  }
  if (best.value < 0.0) best = Cut{0, cut_value(g, 0)};
  return best;
}

double random_cut_expectation(const Graph& g) { return g.total_weight() / 2.0; }

Cut max_cut_simulated_annealing(const Graph& g, int sweeps, Rng& rng,
                                double t_start, double t_end) {
  QGNN_REQUIRE(sweeps >= 1, "need at least one sweep");
  QGNN_REQUIRE(t_start >= t_end && t_end > 0.0,
               "temperatures must satisfy t_start >= t_end > 0");
  const int n = g.num_nodes();
  if (n <= 1 || g.num_edges() == 0) return Cut{0, 0.0};
  const WeightMatrix weight(g);

  // Random initial assignment.
  std::uint64_t assignment = 0;
  for (int v = 0; v < n; ++v) {
    if (rng.bernoulli(0.5)) assignment |= std::uint64_t{1} << v;
  }
  double value = cut_value(g, assignment);
  Cut best{assignment, value};

  const double cooling =
      std::pow(t_end / t_start, 1.0 / static_cast<double>(sweeps));
  double temperature = t_start;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int step = 0; step < n; ++step) {
      const int v = rng.uniform_int(0, n - 1);
      // Gain of flipping v.
      double gain = 0.0;
      const bool sv = (assignment >> v) & 1;
      for (int u : g.neighbors(v)) {
        const bool su = (assignment >> u) & 1;
        const double w = weight(v, u);
        gain += (su == sv) ? w : -w;
      }
      if (gain >= 0.0 || rng.uniform() < std::exp(gain / temperature)) {
        assignment ^= std::uint64_t{1} << v;
        value += gain;
        if (value > best.value) best = Cut{assignment, value};
      }
    }
    temperature *= cooling;
  }
  return best;
}

Cut max_cut_spectral_rounding(const Graph& g, int rounds, Rng& rng, int k) {
  QGNN_REQUIRE(rounds >= 1, "need at least one rounding");
  QGNN_REQUIRE(k >= 1, "need at least one eigenvector");
  const int n = g.num_nodes();
  if (n <= 1 || g.num_edges() == 0) return Cut{0, 0.0};

  // Most-negative adjacency eigenvectors: maximizing the cut is
  // minimizing x^T A x over +-1 vectors, so the bottom of A's spectrum
  // carries the cut structure.
  const EigenResult eigen = jacobi_eigen(adjacency_matrix(g), n);
  const int dims = std::min(k, n);

  Cut best{0, -1.0};
  for (int round = 0; round < rounds; ++round) {
    // Random hyperplane in the spectral embedding.
    std::vector<double> normal(static_cast<std::size_t>(dims));
    for (double& c : normal) c = rng.normal();
    std::uint64_t assignment = 0;
    for (int v = 0; v < n; ++v) {
      double dot = 0.0;
      for (int d = 0; d < dims; ++d) {
        dot += normal[static_cast<std::size_t>(d)] * eigen.vector_entry(v, d);
      }
      if (dot >= 0.0) assignment |= std::uint64_t{1} << v;
    }
    const Cut polished = max_cut_local_search(g, assignment);
    if (polished.value > best.value) best = polished;
  }
  if (best.value < 0.0) best = Cut{0, cut_value(g, 0)};
  return best;
}

double approximation_ratio(double value, double optimum) {
  QGNN_REQUIRE(optimum >= 0.0, "negative optimum");
  if (optimum == 0.0) return 1.0;
  return value / optimum;
}

}  // namespace qgnn
