#pragma once

#include "graph/graph.hpp"
#include "qaoa/eval_engine.hpp"
#include "qaoa/params.hpp"
#include "quantum/circuit.hpp"
#include "quantum/statevector.hpp"

namespace qgnn {

/// The QAOA Max-Cut ansatz: |gamma, beta> =
///   prod_{l=p..1} [ e^{-i beta_l B} e^{-i gamma_l C} ] |+>^n,
/// where B = sum_v X_v is the transverse-field mixer and
/// C = sum_{(u,v) in E} w_uv (1 - Z_u Z_v) / 2 the cost Hamiltonian.
///
/// C is diagonal in the computational basis: its eigenvalue on basis state
/// |x> is exactly the cut value of the assignment x. The full diagonal is
/// built once per graph, in O(2^n) adds for unit weights and per edge
/// (O(2^n * m)) otherwise, and handed to a QaoaEvalEngine, which owns the
/// optimum and the fast evaluation paths (phase-table cost layer, fused
/// mixer, adjoint gradients).
class QaoaAnsatz {
 public:
  explicit QaoaAnsatz(const Graph& g);

  /// The evaluation engine over C's diagonal: cut values, the exact
  /// Max-Cut optimum and its argmax, <state|C|state>, and the fast paths.
  const QaoaEvalEngine& engine() const { return engine_; }
  int num_qubits() const { return engine_.num_qubits(); }

  /// Prepare |gamma, beta> using the diagonal fast path.
  StateVector prepare_state(const QaoaParams& params) const;

  /// <gamma, beta| C |gamma, beta>: the QAOA objective to maximize.
  double expectation(const QaoaParams& params) const;

  /// expectation / exact optimum (in (0, 1]); the paper's headline metric.
  double approximation_ratio(const QaoaParams& params) const;

 private:
  QaoaEvalEngine engine_;
};

/// The same ansatz as an explicit gate circuit (H layer + RZZ per edge +
/// RX mixers). Slower than QaoaAnsatz::prepare_state; used for
/// cross-checks and for counting NISQ gate resources. Global phase may
/// differ from prepare_state; probabilities and expectations agree.
Circuit qaoa_circuit(const Graph& g, const QaoaParams& params);

}  // namespace qgnn
