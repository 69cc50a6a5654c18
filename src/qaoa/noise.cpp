#include "qaoa/noise.hpp"

#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "util/error.hpp"

namespace qgnn {

double sampled_expectation(const QaoaAnsatz& ansatz, const QaoaParams& params,
                           int shots, Rng& rng) {
  QGNN_REQUIRE(shots >= 1, "need at least one shot");
  const StateVector state = ansatz.prepare_state(params);
  double total = 0.0;
  for (int s = 0; s < shots; ++s) {
    total += ansatz.engine().diagonal()[state.sample(rng)];
  }
  return total / static_cast<double>(shots);
}

namespace {

/// Uniform random Pauli error on one qubit.
void apply_random_pauli(StateVector& state, int qubit, Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      state.apply_single_qubit(gates::pauli_x(), qubit);
      break;
    case 1:
      state.apply_single_qubit(gates::pauli_y(), qubit);
      break;
    default:
      state.apply_single_qubit(gates::pauli_z(), qubit);
      break;
  }
}

void maybe_error(StateVector& state, int qubit, double prob, Rng& rng) {
  if (prob > 0.0 && rng.bernoulli(prob)) {
    apply_random_pauli(state, qubit, rng);
  }
}

}  // namespace

StateVector noisy_qaoa_trajectory(const Graph& g, const QaoaParams& params,
                                  const NoiseModel& noise, Rng& rng) {
  QGNN_REQUIRE(noise.single_qubit_error >= 0.0 &&
                   noise.single_qubit_error <= 1.0 &&
                   noise.two_qubit_error >= 0.0 &&
                   noise.two_qubit_error <= 1.0,
               "error probabilities out of [0,1]");
  const int n = g.num_nodes();
  StateVector state = StateVector::plus_state(n);
  for (int layer = 0; layer < params.depth(); ++layer) {
    const double gamma = params.gammas[static_cast<std::size_t>(layer)];
    const double beta = params.betas[static_cast<std::size_t>(layer)];
    for (const Edge& e : g.edges()) {
      state.apply_rzz(-gamma * e.weight, e.u, e.v);
      maybe_error(state, e.u, noise.two_qubit_error, rng);
      maybe_error(state, e.v, noise.two_qubit_error, rng);
    }
    const auto rx = gates::rx(2.0 * beta);
    for (int q = 0; q < n; ++q) {
      state.apply_single_qubit(rx, q);
      maybe_error(state, q, noise.single_qubit_error, rng);
    }
  }
  return state;
}

double noisy_expectation(const Graph& g, const QaoaParams& params,
                         const NoiseModel& noise, int trajectories,
                         Rng& rng) {
  QGNN_REQUIRE(trajectories >= 1, "need at least one trajectory");
  const QaoaAnsatz ansatz(g);
  if (noise.is_noiseless()) trajectories = 1;
  double total = 0.0;
  for (int t = 0; t < trajectories; ++t) {
    const StateVector state = noisy_qaoa_trajectory(g, params, noise, rng);
    total += ansatz.engine().expectation_of(state);
  }
  return total / static_cast<double>(trajectories);
}

double exact_noisy_expectation(const Graph& g, const QaoaParams& params,
                               const NoiseModel& noise) {
  QGNN_REQUIRE(g.num_nodes() <= 12,
               "density-matrix noise simulation limited to 12 qubits");
  const int n = g.num_nodes();
  DensityMatrix rho =
      DensityMatrix::from_state(StateVector::plus_state(n));
  for (int layer = 0; layer < params.depth(); ++layer) {
    const double gamma = params.gammas[static_cast<std::size_t>(layer)];
    const double beta = params.betas[static_cast<std::size_t>(layer)];
    for (const Edge& e : g.edges()) {
      rho.apply_rzz(-gamma * e.weight, e.u, e.v);
      if (noise.two_qubit_error > 0.0) {
        rho.apply_depolarizing(e.u, noise.two_qubit_error);
        rho.apply_depolarizing(e.v, noise.two_qubit_error);
      }
    }
    const auto rx = gates::rx(2.0 * beta);
    for (int q = 0; q < n; ++q) {
      rho.apply_single_qubit(rx, q);
      if (noise.single_qubit_error > 0.0) {
        rho.apply_depolarizing(q, noise.single_qubit_error);
      }
    }
  }
  const QaoaAnsatz ansatz(g);
  return rho.expectation_diagonal(ansatz.engine().diagonal());
}

}  // namespace qgnn
