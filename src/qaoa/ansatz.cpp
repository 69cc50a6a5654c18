#include "qaoa/ansatz.hpp"

#include <bit>
#include <cstdint>
#include <vector>

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

QaoaParams::QaoaParams(std::vector<double> g, std::vector<double> b)
    : gammas(std::move(g)), betas(std::move(b)) {
  QGNN_REQUIRE(gammas.size() == betas.size(),
               "gamma and beta must have the same length");
  QGNN_REQUIRE(!gammas.empty(), "QAOA depth must be at least 1");
}

std::vector<double> QaoaParams::flatten() const {
  std::vector<double> flat = gammas;
  flat.insert(flat.end(), betas.begin(), betas.end());
  return flat;
}

QaoaParams QaoaParams::from_flat(const std::vector<double>& flat) {
  QGNN_REQUIRE(!flat.empty() && flat.size() % 2 == 0,
               "flat parameter vector must have even, positive length");
  const std::size_t p = flat.size() / 2;
  return QaoaParams(std::vector<double>(flat.begin(), flat.begin() + p),
                    std::vector<double>(flat.begin() + p, flat.end()));
}

QaoaParams QaoaParams::single(double gamma, double beta) {
  return QaoaParams({gamma}, {beta});
}

QaoaAnsatz::QaoaAnsatz(const Graph& g) : engine_(cut_engine(g)) {}

StateVector QaoaAnsatz::prepare_state(const QaoaParams& params) const {
  QGNN_REQUIRE(params.depth() >= 1, "QAOA depth must be at least 1");
  StateVector state = StateVector::plus_state(num_qubits());
  std::vector<Amplitude> table;
  engine_.apply_ansatz(state, params, table);
  return state;
}

double QaoaAnsatz::expectation(const QaoaParams& params) const {
  // Runs inside the calling thread's workspace: optimizer loops and the
  // parallel dataset labeller evaluate thousands of parameter points with
  // zero per-evaluation statevector allocations.
  return engine_.expectation(params);
}

double QaoaAnsatz::approximation_ratio(const QaoaParams& params) const {
  const double opt = engine_.max_value();
  if (opt == 0.0) return 1.0;
  return expectation(params) / opt;
}

Circuit qaoa_circuit(const Graph& g, const QaoaParams& params) {
  Circuit c(g.num_nodes());
  for (int layer = 0; layer < params.depth(); ++layer) {
    // Cost layer: e^{-i gamma w (1 - Z_u Z_v)/2} per edge; the Z.Z part is
    // RZZ(-gamma w)... note e^{-i gamma C} = prod_e e^{-i gamma w/2}
    // e^{+i gamma w Z_u Z_v / 2}; the scalar factor is a global phase, and
    // the operator part is RZZ with angle -gamma*w.
    for (const Edge& e : g.edges()) {
      c.rzz(e.u, e.v, -params.gammas[layer] * e.weight);
    }
    for (int q = 0; q < g.num_nodes(); ++q) {
      c.rx(q, 2.0 * params.betas[layer]);
    }
  }
  return c;
}

}  // namespace qgnn
