#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qaoa/params.hpp"
#include "quantum/statevector.hpp"

namespace qgnn {

/// Reusable per-evaluation scratch for QaoaEvalEngine: the prepared
/// statevector, the adjoint statevector (gradients only), and the per-gamma
/// phase table. A workspace belongs to ONE thread at a time; the engine
/// itself is immutable after construction and safe to share across threads
/// as long as each thread brings its own workspace. Buffers are allocated
/// lazily and reallocated only when the qubit count changes, so the
/// 500-evaluation optimization loops run with zero per-evaluation
/// allocations.
class EvalWorkspace {
 public:
  /// The state buffer, sized for `num_qubits` (reallocating if needed).
  StateVector& state(int num_qubits);
  /// The adjoint buffer, sized for `num_qubits` (reallocating if needed).
  StateVector& adjoint(int num_qubits);

  /// Per-gamma phase table scratch (capacity persists across layers).
  std::vector<Amplitude> phase_table;

  /// One workspace per thread, for the convenience overloads that do not
  /// take an explicit workspace. Callers that interleave many different
  /// qubit counts on one thread should manage their own workspaces to
  /// avoid reallocation churn.
  static EvalWorkspace& for_current_thread();

 private:
  std::unique_ptr<StateVector> state_;
  std::unique_ptr<StateVector> adjoint_;
};

/// High-throughput evaluator for diagonal-cost QAOA:
///   |psi(gamma, beta)> = prod_l [RX-layer(2 beta_l) e^{-i gamma_l D}] |+>^n
/// for a real diagonal D: the Max-Cut cut values QaoaAnsatz builds, unit
/// or weighted. This is the hot engine under dataset labelling, the
/// optimizer loops, serve-time AR verification, and the bench suite.
///
/// Fast paths, applied automatically:
///  - Phase-table cost layer: when D takes at most kDefaultMaxLevels
///    distinct values (Max-Cut values are integers in [0, |E|]), the
///    constructor builds a per-state level index once; each cost layer then
///    costs |levels| sincos calls plus 2^n table lookups instead of 2^n
///    sincos calls. Levels store the exact doubles from D, so table results
///    match the generic path bit-for-bit.
///  - Fused RX mixer layer (StateVector::apply_rx_layer): one cache-blocked
///    sweep for all n qubits instead of n generic 2x2 gate passes.
///  - Workspace reuse: prepare/expectation/gradient run entirely inside an
///    EvalWorkspace; no per-evaluation statevector allocation.
///  - Adjoint-mode analytic gradient of <D> wrt (gamma, beta): O(depth)
///    statevector passes instead of the 4*depth full evaluations central
///    finite differences cost.
///
/// All const methods are deterministic and bit-identical at any thread
/// count (they inherit the chunk-invariant statevector kernels).
class QaoaEvalEngine {
 public:
  /// Distinct-diagonal-value budget for the phase table; above it the
  /// engine falls back to the generic sincos path. Sized to the uint16
  /// index array.
  static constexpr std::size_t kDefaultMaxLevels = std::size_t{1} << 16;

  /// Takes ownership of the 2^n diagonal. `max_levels` is exposed for
  /// tests that exercise the fallback path on small diagonals.
  QaoaEvalEngine(int num_qubits, std::vector<double> diagonal,
                 std::size_t max_levels = kDefaultMaxLevels);

  /// A diagonal of small non-negative integers (unit-weight cut values),
  /// kept as the phase-table index: no scan of the doubles runs.
  QaoaEvalEngine(int num_qubits, std::vector<std::uint16_t> values);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }
  std::span<const double> diagonal() const { return diag_; }

  /// Largest diagonal value and the first state reaching it, found at
  /// construction alongside the phase table.
  double max_value() const { return max_value_; }
  std::uint64_t argmax() const { return argmax_; }

  /// True when the quantized cost layer is in use.
  bool phase_table_active() const { return !level_of_.empty(); }
  /// Number of phase-table entries (0 when the table is inactive). For
  /// the small-integer fast path this is max(diag)+1, a superset of the
  /// distinct values; for the sorted path it is the exact distinct count.
  std::size_t num_levels() const { return levels_.size(); }

  /// Apply e^{-i gamma D} to `state` (phase table when active, generic
  /// sincos otherwise). `table_scratch` holds the per-gamma table.
  void apply_cost_layer(StateVector& state, double gamma,
                        std::vector<Amplitude>& table_scratch) const;

  /// Apply the full ansatz (cost + mixer per layer) to `state`, which must
  /// already hold the initial state (normally |+>^n).
  void apply_ansatz(StateVector& state, const QaoaParams& params,
                    std::vector<Amplitude>& table_scratch) const;

  /// Prepare |psi(params)> into ws.state and return a reference to it.
  const StateVector& prepare_state(const QaoaParams& params,
                                   EvalWorkspace& ws) const;

  /// <psi(params)| D |psi(params)>.
  double expectation(const QaoaParams& params, EvalWorkspace& ws) const;
  /// Same, with the calling thread's shared workspace.
  double expectation(const QaoaParams& params) const;

  /// <state| D |state> for an externally prepared state.
  double expectation_of(const StateVector& state) const;

  /// Adjoint-mode value and analytic gradient: returns <D> at `params` and
  /// fills `grad` (size 2p, flat [gammas..., betas...] layout matching
  /// QaoaParams::flatten) with d<D>/d(gamma_l, beta_l). Costs one forward
  /// preparation plus O(depth) reverse passes.
  double value_and_gradient(const QaoaParams& params,
                            std::vector<double>& grad,
                            EvalWorkspace& ws) const;
  /// Same, with the calling thread's shared workspace.
  double value_and_gradient(const QaoaParams& params,
                            std::vector<double>& grad) const;

  /// Pre-engine reference implementation (per-amplitude sincos diagonal +
  /// per-qubit generic 2x2 mixer, fresh allocation): the equivalence-test
  /// oracle and the bench baseline the >=3x speedup is measured against.
  StateVector prepare_state_reference(const QaoaParams& params) const;
  double expectation_reference(const QaoaParams& params) const;

 private:
  void build_levels(std::size_t max_levels);
  void build_phase_table(double gamma, std::vector<Amplitude>& table) const;

  int num_qubits_;
  std::vector<double> diag_;
  double max_value_ = 0.0;
  std::uint64_t argmax_ = 0;
  std::vector<double> levels_;          // distinct diagonal values
  std::vector<std::uint16_t> level_of_; // per-state level index; empty =>
                                        // table inactive
};

}  // namespace qgnn
