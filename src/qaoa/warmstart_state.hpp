#pragma once

#include <cstdint>

#include "qaoa/ansatz.hpp"

namespace qgnn {

/// State-based warm start (Egger, Marecek & Woerner, Quantum 5, 479 -
/// the paper's SS5): instead of |+>^n, QAOA starts from a product state
/// biased toward a classical cut,
///   |psi_0> = prod_v Ry(theta_v) |0>,  theta_v = 2 asin(sqrt(c_v)),
/// where c_v = 1 - eps for nodes on side 1 and eps for side 0. The
/// regularization eps > 0 keeps the mixer able to leave the classical
/// point (eps = 0 would make it a fixed point of pure Z-phase dynamics).
///
/// The mixer here stays the standard transverse field (the "simplified"
/// warm start); the aligned-mixer variant is future work, mirroring the
/// original paper's options.
class WarmStartAnsatz {
 public:
  /// `classical_cut` is a node-side bitmask (bit v = side of node v),
  /// e.g. from max_cut_greedy or max_cut_spectral_rounding.
  WarmStartAnsatz(const Graph& g, std::uint64_t classical_cut,
                  double regularization = 0.25);

  int num_qubits() const { return ansatz_.num_qubits(); }
  double regularization() const { return regularization_; }

  /// The biased initial product state (before any QAOA layer).
  StateVector initial_state() const;

  /// Apply p QAOA layers (cost phase + RX mixer) to the biased state.
  StateVector prepare_state(const QaoaParams& params) const;

  double expectation(const QaoaParams& params) const;
  double approximation_ratio(const QaoaParams& params) const;

  /// <C> of the bare initial state: approaches the classical cut value as
  /// regularization -> 0.
  double initial_expectation() const;

 private:
  QaoaAnsatz ansatz_;  // the cut table C and its optimum
  std::uint64_t classical_cut_;
  double regularization_;
};

}  // namespace qgnn
