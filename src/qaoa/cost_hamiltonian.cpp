#include "qaoa/cost_hamiltonian.hpp"

#include <bit>

#include "util/error.hpp"

namespace qgnn {

namespace {

/// Unit-weight cut counts, built by doubling. Step k copies the states
/// without bit k to those with it, then adds node k's edges to its lower
/// neighbours L: popcount(x & L) are cut with node k on side 0, the rest
/// with it on side 1. The popcounts double too; every loop is a plain add.
std::vector<std::uint16_t> cut_count_table(const Graph& g) {
  const std::size_t dim = std::size_t{1} << g.num_nodes();
  std::vector<std::uint16_t> cuts(dim, 0);
  std::vector<int> same(dim / 2, 0);  // popcount(x & L) for x < 2^k
  for (int k = 0; k < g.num_nodes(); ++k) {
    std::uint64_t lower = 0;
    for (int u : g.neighbors(k)) {
      if (u < k) lower |= std::uint64_t{1} << u;
    }
    const std::size_t half = std::size_t{1} << k;
    for (std::size_t top = 1; top < half; top <<= 1) {
      const int bit = (lower & top) != 0 ? 1 : 0;
      for (std::size_t x = 0; x < top; ++x) same[top + x] = same[x] + bit;
    }
    const int degree = std::popcount(lower);
    for (std::size_t x = 0; x < half; ++x) {
      cuts[half + x] = static_cast<std::uint16_t>(cuts[x] + degree - same[x]);
      cuts[x] = static_cast<std::uint16_t>(cuts[x] + same[x]);
    }
  }
  return cuts;
}

/// Weighted cut values, edge by edge: each state sums its weights in edge
/// order, which fixes the bits of non-integer sums. O(2^n * m).
std::vector<double> cut_value_table(const Graph& g) {
  const std::uint64_t dim = std::uint64_t{1} << g.num_nodes();
  std::vector<double> diag(dim, 0.0);
  for (const Edge& e : g.edges()) {
    const std::uint64_t ub = std::uint64_t{1} << e.u;
    const std::uint64_t vb = std::uint64_t{1} << e.v;
    for (std::uint64_t x = 0; x < dim; ++x) {
      if (((x & ub) != 0) != ((x & vb) != 0)) diag[x] += e.weight;
    }
  }
  return diag;
}

QaoaEvalEngine cut_engine(const Graph& g) {
  QGNN_REQUIRE(g.num_nodes() >= 1 && g.num_nodes() <= kMaxQubits,
               "graph size out of simulable range [1, kMaxQubits] nodes");
  return g.is_unweighted()
             ? QaoaEvalEngine(g.num_nodes(), cut_count_table(g))
             : QaoaEvalEngine(g.num_nodes(), cut_value_table(g));
}

}  // namespace

CostHamiltonian::CostHamiltonian(const Graph& g) : engine_(cut_engine(g)) {}

void CostHamiltonian::apply_phase(StateVector& state, double gamma) const {
  QGNN_REQUIRE(state.num_qubits() == num_qubits(),
               "state size does not match Hamiltonian");
  state.apply_diagonal_phase(engine_.diagonal(), gamma);
}

double CostHamiltonian::expectation(const StateVector& state) const {
  QGNN_REQUIRE(state.num_qubits() == num_qubits(),
               "state size does not match Hamiltonian");
  return state.expectation_diagonal(engine_.diagonal());
}

}  // namespace qgnn
