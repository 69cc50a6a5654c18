#pragma once

#include <span>
#include <vector>

#include "qaoa/eval_engine.hpp"

namespace qgnn {

/// QAOA over an ARBITRARY diagonal cost function (not just Max-Cut):
/// the generalization the paper's conclusion points at ("similar
/// approaches could be applied to other problems"). The ansatz is
/// identical — |+>^n, alternating e^{-i gamma D} and RX mixers — with D
/// given directly as its 2^n diagonal values. Maximization convention,
/// matching QaoaAnsatz. Evaluation is delegated to a QaoaEvalEngine, so
/// few-valued diagonals (Ising energies on small integer couplings, cut
/// values, ...) automatically get the phase-table fast path.
class DiagonalQaoa {
 public:
  DiagonalQaoa(int num_qubits, std::vector<double> diagonal);

  int num_qubits() const { return engine_.num_qubits(); }
  std::span<const double> diagonal() const { return engine_.diagonal(); }
  double max_value() const { return engine_.max_value(); }
  std::uint64_t argmax() const { return engine_.argmax(); }

  /// The evaluation engine bound to this diagonal.
  const QaoaEvalEngine& engine() const { return engine_; }

  StateVector prepare_state(const QaoaParams& params) const;
  double expectation(const QaoaParams& params) const;
  /// expectation normalized by the best diagonal value; only meaningful
  /// when max_value() > 0.
  double approximation_ratio(const QaoaParams& params) const;

 private:
  QaoaEvalEngine engine_;
};

}  // namespace qgnn
