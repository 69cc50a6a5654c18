#include "qaoa/diagonal_qaoa.hpp"

#include <utility>

#include "util/error.hpp"

namespace qgnn {

DiagonalQaoa::DiagonalQaoa(int num_qubits, std::vector<double> diagonal)
    : engine_(num_qubits, std::move(diagonal)) {}

StateVector DiagonalQaoa::prepare_state(const QaoaParams& params) const {
  StateVector state = StateVector::plus_state(num_qubits());
  std::vector<Amplitude> table;
  engine_.apply_ansatz(state, params, table);
  return state;
}

double DiagonalQaoa::expectation(const QaoaParams& params) const {
  return engine_.expectation(params);
}

double DiagonalQaoa::approximation_ratio(const QaoaParams& params) const {
  QGNN_REQUIRE(max_value() > 0.0,
               "approximation ratio undefined for non-positive optimum");
  return expectation(params) / max_value();
}

}  // namespace qgnn
