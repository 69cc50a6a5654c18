#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "qaoa/eval_engine.hpp"
#include "quantum/statevector.hpp"

namespace qgnn {

/// Max-Cut cost Hamiltonian C = sum_{(u,v) in E} w_uv (1 - Z_u Z_v) / 2.
///
/// C is diagonal in the computational basis: its eigenvalue on basis state
/// |x> is exactly the cut value of the assignment x. The full diagonal is
/// precomputed once per graph, in O(2^n) adds for unit weights and per edge
/// (O(2^n * m)) otherwise, and handed to a QaoaEvalEngine, which owns the
/// optimum and the fast evaluation paths (phase-table cost layer, fused
/// mixer, adjoint gradients).
class CostHamiltonian {
 public:
  explicit CostHamiltonian(const Graph& g);

  int num_qubits() const { return engine_.num_qubits(); }
  std::uint64_t dimension() const { return engine_.dimension(); }

  /// Eigenvalue (cut value) of basis state |x>.
  double value(std::uint64_t x) const { return engine_.diagonal()[x]; }
  std::span<const double> diagonal() const { return engine_.diagonal(); }

  /// The evaluation engine bound to this diagonal — the fast path for
  /// whole-ansatz preparation, expectation, and analytic gradients.
  const QaoaEvalEngine& engine() const { return engine_; }

  /// Largest eigenvalue = exact Max-Cut optimum (from the same table, so
  /// always consistent with the diagonal).
  double max_value() const { return engine_.max_value(); }
  /// The first basis state achieving max_value().
  std::uint64_t argmax() const { return engine_.argmax(); }

  /// Apply the QAOA cost layer exp(-i gamma C) to `state`.
  void apply_phase(StateVector& state, double gamma) const;

  /// <state| C |state>.
  double expectation(const StateVector& state) const;

 private:
  QaoaEvalEngine engine_;
};

}  // namespace qgnn
