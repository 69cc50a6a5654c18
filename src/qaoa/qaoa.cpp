#include "qaoa/qaoa.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace qgnn {

QaoaResult run_qaoa_from(const Graph& g, const QaoaParams& start,
                         const QaoaRunConfig& config, Rng& rng) {
  QGNN_REQUIRE(start.depth() == config.depth,
               "initial parameters do not match configured depth");
  const QaoaAnsatz ansatz(g);
  const QaoaEvalEngine& engine = ansatz.engine();
  const double optimum = engine.max_value();

  QaoaResult result;
  result.initial_params = start;
  result.optimum = optimum;
  result.initial_expectation = ansatz.expectation(start);
  result.initial_ar =
      optimum > 0.0 ? result.initial_expectation / optimum : 1.0;

  if (config.optimizer == QaoaOptimizer::kNone) {
    result.best_params = start;
    result.best_expectation = result.initial_expectation;
    result.evaluations = 1;
    result.trace = {result.initial_expectation};
  } else {
    // One workspace for the whole optimization: every evaluation below
    // reuses its statevector buffers instead of allocating 2^n amplitudes.
    EvalWorkspace ws;
    OptResult opt;
    if (config.optimizer == QaoaOptimizer::kNelderMead) {
      const Objective objective = [&engine,
                                   &ws](const std::vector<double>& flat) {
        return engine.expectation(QaoaParams::from_flat(flat), ws);
      };
      NelderMeadConfig nm;
      nm.max_evaluations = config.max_evaluations;
      opt = nelder_mead_maximize(objective, start.flatten(), nm);
    } else {
      const GradientObjective fg = [&engine, &ws](
                                       const std::vector<double>& flat,
                                       std::vector<double>& grad) {
        return engine.value_and_gradient(QaoaParams::from_flat(flat), grad,
                                         ws);
      };
      AdamConfig adam;
      // An adjoint value-plus-gradient pass costs about as much as 3 plain
      // evaluations (forward prep + seed + two reverse statevector sweeps
      // per layer), independent of depth — that is the budget conversion.
      adam.max_iterations = std::max(1, config.max_evaluations / 3);
      opt = adam_maximize(fg, start.flatten(), adam);
    }
    result.best_params = QaoaParams::from_flat(opt.best_params);
    result.best_expectation = opt.best_value;
    result.evaluations = opt.evaluations;
    result.trace = std::move(opt.trace);
  }
  result.best_ar = optimum > 0.0 ? result.best_expectation / optimum : 1.0;

  // Extract a concrete cut from the optimized state.
  const StateVector final_state = ansatz.prepare_state(result.best_params);
  if (config.sample_shots > 0) {
    Cut best{0, -1.0};
    for (int s = 0; s < config.sample_shots; ++s) {
      const std::uint64_t bits = final_state.sample(rng);
      const double v = engine.diagonal()[bits];
      if (v > best.value) best = Cut{bits, v};
    }
    result.sampled_cut = best;
  } else {
    // Most probable basis state.
    std::uint64_t best_idx = 0;
    double best_p = -1.0;
    for (std::uint64_t k = 0; k < final_state.dimension(); ++k) {
      const double p = final_state.probability(k);
      if (p > best_p) {
        best_p = p;
        best_idx = k;
      }
    }
    result.sampled_cut = Cut{best_idx, engine.diagonal()[best_idx]};
  }
  return result;
}

QaoaResult run_qaoa(const Graph& g, ParameterInitializer& init,
                    const QaoaRunConfig& config, Rng& rng) {
  const QaoaParams start = init.initialize(g, config.depth);
  return run_qaoa_from(g, start, config, rng);
}

std::optional<int> evaluations_to_reach(const std::vector<double>& trace,
                                        double target) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] >= target) return static_cast<int>(i) + 1;
  }
  return std::nullopt;
}

}  // namespace qgnn
