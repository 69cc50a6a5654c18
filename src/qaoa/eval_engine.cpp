#include "qaoa/eval_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quantum/gates.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace {

/// Registry handles cached once; these run per evaluation inside
/// optimization loops and must not take the registry mutex per call.
obs::LatencyHistogram& phase_table_histogram() {
  static obs::LatencyHistogram& h =
      obs::MetricsRegistry::global().histogram(obs::names::kQaoaPhaseTableUs);
  return h;
}

obs::Counter& grad_passes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter(obs::names::kQaoaGradPasses);
  return c;
}

}  // namespace

StateVector& EvalWorkspace::state(int num_qubits) {
  if (!state_ || state_->num_qubits() != num_qubits) {
    state_ = std::make_unique<StateVector>(num_qubits);
  }
  return *state_;
}

StateVector& EvalWorkspace::adjoint(int num_qubits) {
  if (!adjoint_ || adjoint_->num_qubits() != num_qubits) {
    adjoint_ = std::make_unique<StateVector>(num_qubits);
  }
  return *adjoint_;
}

EvalWorkspace& EvalWorkspace::for_current_thread() {
  thread_local EvalWorkspace ws;
  return ws;
}

QaoaEvalEngine::QaoaEvalEngine(int num_qubits, std::vector<double> diagonal,
                               std::size_t max_levels)
    : num_qubits_(num_qubits), diag_(std::move(diagonal)) {
  QGNN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
               "qubit count out of supported range [1, kMaxQubits]");
  QGNN_REQUIRE(diag_.size() == (std::size_t{1} << num_qubits),
               "diagonal length must be 2^n");
  build_levels(std::min(max_levels, kDefaultMaxLevels));
}

QaoaEvalEngine::QaoaEvalEngine(int num_qubits,
                               std::vector<std::uint16_t> values)
    : num_qubits_(num_qubits),
      diag_(values.begin(), values.end()),
      level_of_(std::move(values)) {
  QGNN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits &&
                   level_of_.size() == (std::size_t{1} << num_qubits),
               "need 2^n values for 1 <= n <= kMaxQubits");
  const auto top = std::max_element(level_of_.begin(), level_of_.end());
  max_value_ = *top;
  argmax_ = static_cast<std::uint64_t>(top - level_of_.begin());
  levels_.resize(std::size_t{*top} + 1);
  std::iota(levels_.begin(), levels_.end(), 0.0);
}

void QaoaEvalEngine::build_levels(std::size_t max_levels) {
  bool finite = true;
  bool small_ints = true;
  max_value_ = diag_[0];
  for (std::size_t k = 0; k < diag_.size(); ++k) {
    const double v = diag_[k];
    if (v > max_value_) {
      max_value_ = v;
      argmax_ = k;
    }
    finite = finite && std::isfinite(v);
    small_ints = small_ints && v >= 0.0 && v == std::floor(v) &&
                 v < static_cast<double>(kDefaultMaxLevels);
  }
  // Fast path for Max-Cut style diagonals: small non-negative integers
  // index the table directly, no sort and no per-state binary search.
  if (small_ints &&
      static_cast<std::size_t>(max_value_) + 1 <= max_levels) {
    levels_.resize(static_cast<std::size_t>(max_value_) + 1);
    std::iota(levels_.begin(), levels_.end(), 0.0);
    level_of_.resize(diag_.size());
    for (std::size_t k = 0; k < diag_.size(); ++k) {
      level_of_[k] = static_cast<std::uint16_t>(diag_[k]);
    }
    return;
  }

  if (!finite) return;  // NaN/inf: table off, generic path only
  // General diagonals: quantize onto the exact distinct values (exact
  // double ==, no epsilon — the table must reproduce the generic path
  // bit-for-bit). More distinct values than the budget means the table
  // would not pay for itself; leave it off.
  std::vector<double> sorted = diag_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() > max_levels) return;
  levels_ = std::move(sorted);
  level_of_.resize(diag_.size());
  for (std::size_t k = 0; k < diag_.size(); ++k) {
    const auto it =
        std::lower_bound(levels_.begin(), levels_.end(), diag_[k]);
    level_of_[k] =
        static_cast<std::uint16_t>(it - levels_.begin());
  }
}

void QaoaEvalEngine::build_phase_table(double gamma,
                                       std::vector<Amplitude>& table) const {
  table.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    // Same expression as StateVector::apply_diagonal_phase evaluates per
    // amplitude, and levels_ holds the exact doubles from diag_, so the
    // table path is bit-identical to the generic path.
    const double phi = -gamma * levels_[l];
    table[l] = Amplitude{std::cos(phi), std::sin(phi)};
  }
}

void QaoaEvalEngine::apply_cost_layer(
    StateVector& state, double gamma,
    std::vector<Amplitude>& table_scratch) const {
  QGNN_REQUIRE(state.num_qubits() == num_qubits_,
               "state size does not match engine");
  if (!phase_table_active()) {
    state.apply_diagonal_phase(diag_, gamma);
    return;
  }
  obs::ScopedTimer timer(obs::enabled() ? &phase_table_histogram() : nullptr);
  build_phase_table(gamma, table_scratch);
  state.apply_phase_table(level_of_, table_scratch);
}

void QaoaEvalEngine::apply_ansatz(StateVector& state,
                                  const QaoaParams& params,
                                  std::vector<Amplitude>& table_scratch) const {
  QGNN_REQUIRE(params.gammas.size() == params.betas.size(),
               "gamma/beta depth mismatch");
  for (int layer = 0; layer < params.depth(); ++layer) {
    const auto l = static_cast<std::size_t>(layer);
    apply_cost_layer(state, params.gammas[l], table_scratch);
    state.apply_rx_layer(2.0 * params.betas[l]);
  }
}

const StateVector& QaoaEvalEngine::prepare_state(const QaoaParams& params,
                                                 EvalWorkspace& ws) const {
  StateVector& state = ws.state(num_qubits_);
  state.set_plus_state();
  apply_ansatz(state, params, ws.phase_table);
  return state;
}

double QaoaEvalEngine::expectation(const QaoaParams& params,
                                   EvalWorkspace& ws) const {
  return prepare_state(params, ws).expectation_diagonal(diag_);
}

double QaoaEvalEngine::expectation(const QaoaParams& params) const {
  return expectation(params, EvalWorkspace::for_current_thread());
}

double QaoaEvalEngine::expectation_of(const StateVector& state) const {
  QGNN_REQUIRE(state.num_qubits() == num_qubits_,
               "state size does not match engine");
  return state.expectation_diagonal(diag_);
}

double QaoaEvalEngine::value_and_gradient(const QaoaParams& params,
                                          std::vector<double>& grad,
                                          EvalWorkspace& ws) const {
  const int p = params.depth();
  grad.assign(static_cast<std::size_t>(2 * p), 0.0);

  // Forward: psi = prod_l M_l P_l |+>, E = <psi|D|psi>.
  StateVector& psi = ws.state(num_qubits_);
  psi.set_plus_state();
  apply_ansatz(psi, params, ws.phase_table);
  const double value = psi.expectation_diagonal(diag_);

  // Adjoint seed: phi = D psi, so that at every point of the reverse sweep
  // phi = U_suffix^dag (D psi_full) and the parameter-shift overlaps below
  // are exactly dE/dtheta (E = <psi|D|psi> is real, giving the factor 2).
  StateVector& phi = ws.adjoint(num_qubits_);
  phi.assign_scaled(psi, diag_);

  // Reverse sweep, layer p-1 .. 0. Loop invariant at the top of iteration
  // l: psi holds the state AFTER layer l, phi holds the suffix-adjointed
  // seed. Each step peels one layer off both:
  //   dE/dbeta_l  = 2 Im<phi| B |psi>   (before undoing the mixer)
  //   dE/dgamma_l = 2 Im<phi| D |psi>   (after undoing the mixer)
  for (int layer = p - 1; layer >= 0; --layer) {
    const auto l = static_cast<std::size_t>(layer);
    grad[static_cast<std::size_t>(p) + l] = psi.mixer_grad_overlap(phi);
    psi.apply_rx_layer(-2.0 * params.betas[l]);
    phi.apply_rx_layer(-2.0 * params.betas[l]);
    grad[l] = psi.phase_grad_overlap(phi, diag_);
    apply_cost_layer(psi, -params.gammas[l], ws.phase_table);
    apply_cost_layer(phi, -params.gammas[l], ws.phase_table);
  }

  if (obs::enabled()) {
    // Forward passes (2p layer applications) + seed + expectation, plus 6
    // reverse-sweep passes per layer: the "work unit" the FD-vs-adjoint
    // bench compares against 4*depth full evaluations.
    grad_passes_counter().add(static_cast<std::uint64_t>(8 * p + 2));
  }
  return value;
}

double QaoaEvalEngine::value_and_gradient(const QaoaParams& params,
                                          std::vector<double>& grad) const {
  return value_and_gradient(params, grad,
                            EvalWorkspace::for_current_thread());
}

StateVector QaoaEvalEngine::prepare_state_reference(
    const QaoaParams& params) const {
  StateVector state = StateVector::plus_state(num_qubits_);
  for (int layer = 0; layer < params.depth(); ++layer) {
    const auto l = static_cast<std::size_t>(layer);
    state.apply_diagonal_phase(diag_, params.gammas[l]);
    const auto rx = gates::rx(2.0 * params.betas[l]);
    for (int q = 0; q < num_qubits_; ++q) {
      state.apply_single_qubit(rx, q);
    }
  }
  return state;
}

double QaoaEvalEngine::expectation_reference(const QaoaParams& params) const {
  return prepare_state_reference(params).expectation_diagonal(diag_);
}

}  // namespace qgnn
