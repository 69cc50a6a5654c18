#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace qgnn {

/// Objective to MAXIMIZE over a flat parameter vector (QAOA convention:
/// maximize <C>). All optimizers below share this signature.
///
/// Thread-safety contract: every optimizer in this header is deterministic
/// and draws no random numbers — given the same start point it evaluates
/// the same sequence of parameter vectors. The parallel dataset labeller
/// relies on this: randomness enters only through the per-item
/// ParameterInitializer stream (seeded via derive_seed(seed, index)), so
/// concurrent label optimizations never share RNG state. Keep new
/// optimizers RNG-free, or take an explicit Rng& so callers can scope it
/// per work unit.
using Objective = std::function<double(const std::vector<double>&)>;

/// Result of one optimization run. `trace` holds the best objective value
/// seen after each objective evaluation — the convergence curve used to
/// show that warm starts need fewer quantum circuit evaluations.
struct OptResult {
  std::vector<double> best_params;
  double best_value = 0.0;
  int evaluations = 0;
  std::vector<double> trace;
  bool converged = false;
};

/// Nelder–Mead simplex search (derivative-free). The paper's label
/// generation optimizes (gamma, beta) for 500 iterations from a random
/// start; this is the optimizer used for that loop.
struct NelderMeadConfig {
  int max_evaluations = 500;
  double initial_step = 0.4;
  double tolerance = 1e-8;        // simplex value-spread stopping criterion
  double param_tolerance = 1e-7;  // simplex diameter stopping criterion
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
};

OptResult nelder_mead_maximize(const Objective& f,
                               const std::vector<double>& start,
                               const NelderMeadConfig& config = {});

/// Adam ascent on a central-finite-difference gradient. Gradient-based
/// alternative benchmarked against Nelder–Mead in the ablations.
struct AdamConfig {
  int max_iterations = 200;
  double learning_rate = 0.05;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double fd_step = 1e-5;        // finite-difference half-step
  double tolerance = 1e-10;     // stop when |delta value| stays below this
  int patience = 10;
};

OptResult adam_maximize(const Objective& f, const std::vector<double>& start,
                        const AdamConfig& config = {});

/// Objective with analytic gradient: returns f(x) and fills `grad`
/// (resized by the callee) with df/dx. Same determinism contract as
/// Objective.
using GradientObjective =
    std::function<double(const std::vector<double>&, std::vector<double>&)>;

/// Adam ascent on an analytic gradient (e.g. QaoaEvalEngine's
/// adjoint-mode value_and_gradient). One value-plus-gradient call per
/// iteration instead of the 4p+1 objective evaluations the
/// finite-difference variant needs; each call counts as one entry in the
/// trace. `config.fd_step` is unused.
OptResult adam_maximize(const GradientObjective& fg,
                        const std::vector<double>& start,
                        const AdamConfig& config = {});

/// Exhaustive 2-D grid search for depth-1 QAOA over
/// gamma in [0, gamma_max) x beta in [0, beta_max). Returns the best grid
/// point; useful as a near-global-optimum reference on small graphs.
struct GridSearchConfig {
  int gamma_steps = 64;
  int beta_steps = 64;
  double gamma_max = 6.283185307179586;  // 2*pi
  double beta_max = 3.141592653589793;   // pi
};

OptResult grid_search_maximize_2d(const Objective& f,
                                  const GridSearchConfig& config = {});

/// Central finite-difference gradient of f at x.
std::vector<double> finite_difference_gradient(const Objective& f,
                                               const std::vector<double>& x,
                                               double h = 1e-5);

}  // namespace qgnn
