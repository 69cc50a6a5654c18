#pragma once

#include <optional>

#include "graph/graph.hpp"
#include "maxcut/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/initializers.hpp"
#include "qaoa/optimize.hpp"
#include "util/rng.hpp"

namespace qgnn {

/// Which classical outer-loop optimizer refines the QAOA parameters.
enum class QaoaOptimizer {
  kNelderMead,  // derivative-free; the paper's 500-iteration label loop
  kAdam,        // gradient ascent (adjoint-mode analytic gradient)
  kNone,        // evaluate the initial parameters only (no refinement)
};

struct QaoaRunConfig {
  int depth = 1;
  QaoaOptimizer optimizer = QaoaOptimizer::kNelderMead;
  /// Objective-evaluation budget (each evaluation is one simulated quantum
  /// circuit execution — the quantum resource being economized).
  int max_evaluations = 500;
  /// Shots for sampling a concrete cut from the final state; 0 disables
  /// sampling and reports the most probable basis state instead.
  int sample_shots = 256;
};

/// Complete record of one QAOA run, including everything the dataset
/// pipeline and the reproduction benches need.
struct QaoaResult {
  QaoaParams initial_params{{0.0}, {0.0}};
  QaoaParams best_params{{0.0}, {0.0}};
  double initial_expectation = 0.0;
  double best_expectation = 0.0;
  double optimum = 0.0;            // exact Max-Cut value
  double initial_ar = 0.0;         // approximation ratio before refinement
  double best_ar = 0.0;            // approximation ratio after refinement
  int evaluations = 0;
  std::vector<double> trace;       // best-so-far <C> per evaluation
  Cut sampled_cut;                 // best cut among sampled bitstrings
};

/// Run QAOA on `g`: draw initial parameters from `init`, refine them with
/// the configured optimizer, and sample a cut from the final state.
/// `rng` seeds measurement sampling only (optimizers are deterministic).
QaoaResult run_qaoa(const Graph& g, ParameterInitializer& init,
                    const QaoaRunConfig& config, Rng& rng);

/// Same, but starting from explicitly given parameters.
QaoaResult run_qaoa_from(const Graph& g, const QaoaParams& start,
                         const QaoaRunConfig& config, Rng& rng);

/// First evaluation index (1-based) at which `trace` reaches `target`, or
/// nullopt if it never does. Quantifies "warm starts converge in fewer
/// iterations".
std::optional<int> evaluations_to_reach(const std::vector<double>& trace,
                                        double target);

}  // namespace qgnn
