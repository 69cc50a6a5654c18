#include "qaoa/warmstart_state.hpp"

#include <cmath>

#include "quantum/gates.hpp"
#include "util/error.hpp"

namespace qgnn {

WarmStartAnsatz::WarmStartAnsatz(const Graph& g, std::uint64_t classical_cut,
                                 double regularization)
    : ansatz_(g),
      classical_cut_(classical_cut),
      regularization_(regularization) {
  QGNN_REQUIRE(regularization > 0.0 && regularization <= 0.5,
               "regularization must be in (0, 0.5]");
  QGNN_REQUIRE(g.num_nodes() >= 64 ||
                   classical_cut < (std::uint64_t{1} << g.num_nodes()),
               "classical cut has bits beyond the node count");
}

StateVector WarmStartAnsatz::initial_state() const {
  const int n = num_qubits();
  StateVector state(n);  // |0...0>
  for (int v = 0; v < n; ++v) {
    const bool side1 = (classical_cut_ >> v) & 1;
    const double c = side1 ? 1.0 - regularization_ : regularization_;
    const double theta = 2.0 * std::asin(std::sqrt(c));
    state.apply_single_qubit(gates::ry(theta), v);
  }
  return state;
}

StateVector WarmStartAnsatz::prepare_state(const QaoaParams& params) const {
  StateVector state = initial_state();
  for (int layer = 0; layer < params.depth(); ++layer) {
    state.apply_diagonal_phase(ansatz_.engine().diagonal(),
                               params.gammas[static_cast<std::size_t>(layer)]);
    const auto rx =
        gates::rx(2.0 * params.betas[static_cast<std::size_t>(layer)]);
    for (int q = 0; q < num_qubits(); ++q) {
      state.apply_single_qubit(rx, q);
    }
  }
  return state;
}

double WarmStartAnsatz::expectation(const QaoaParams& params) const {
  return ansatz_.engine().expectation_of(prepare_state(params));
}

double WarmStartAnsatz::approximation_ratio(const QaoaParams& params) const {
  const double opt = ansatz_.engine().max_value();
  if (opt == 0.0) return 1.0;
  return expectation(params) / opt;
}

double WarmStartAnsatz::initial_expectation() const {
  return ansatz_.engine().expectation_of(initial_state());
}

}  // namespace qgnn
