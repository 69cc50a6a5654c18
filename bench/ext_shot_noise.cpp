// Extension E4: NISQ realism. Two effects a real device adds on top of
// the paper's noiseless simulation:
//   (a) finite measurement shots - <C> becomes a noisy estimator, and
//   (b) depolarizing gate errors - the state itself degrades.
// This bench quantifies both for the fixed-angle p=1 point on 3-regular
// graphs, showing how many shots the estimator needs and how fast AR
// decays with the two-qubit error rate.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "qaoa/noise.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qgnn;
  const CliArgs args(argc, argv);
  const int nodes = args.get_int("nodes", 10);
  const int num_graphs = args.get_int("graphs", 5);
  Rng graph_rng(static_cast<std::uint64_t>(args.get_int("seed", 50)));

  std::vector<Graph> graphs;
  for (int i = 0; i < num_graphs; ++i) {
    graphs.push_back(random_regular_graph(nodes, 3, graph_rng));
  }
  FixedAngleInitializer fixed;

  std::cout << "== Extension: finite shots and depolarizing noise ==\n\n";

  // --- (a) shot-noise of the <C> estimator.
  std::cout << "(a) |sampled <C> - exact <C>| vs shots (mean over "
            << num_graphs << " graphs, 20 repetitions each)\n";
  Table shot_table({"shots", "mean abs error", "expected ~ stddev/sqrt(S)"});
  Rng rng(3);
  for (int shots : {16, 64, 256, 1024, 4096}) {
    RunningStats err;
    double predicted = 0.0;
    for (const Graph& g : graphs) {
      const QaoaAnsatz ansatz(g);
      const QaoaParams params = fixed.initialize(g, 1);
      const double exact = ansatz.expectation(params);
      // Per-shot variance of the cut-value distribution.
      const StateVector state = ansatz.prepare_state(params);
      double second = 0.0;
      for (std::uint64_t k = 0; k < state.dimension(); ++k) {
        const double c = ansatz.engine().diagonal()[k];
        second += state.probability(k) * c * c;
      }
      const double variance = second - exact * exact;
      predicted += std::sqrt(variance / shots);
      for (int rep = 0; rep < 20; ++rep) {
        err.add(std::abs(sampled_expectation(ansatz, params, shots, rng) -
                         exact));
      }
    }
    predicted /= static_cast<double>(graphs.size());
    // Mean absolute error of a Gaussian is sigma * sqrt(2/pi).
    shot_table.add_row({std::to_string(shots),
                        format_double(err.mean(), 4),
                        format_double(predicted * std::sqrt(2.0 / 3.14159),
                                      4)});
  }
  shot_table.print(std::cout);

  // --- (b) depolarizing noise sweep.
  std::cout << "\n(b) AR at fixed angles vs two-qubit error rate "
               "(trajectory average, 1q rate = 2q/10)\n";
  Table noise_table({"2q error rate", "mean AR", "AR loss vs noiseless"});
  double noiseless_ar = 0.0;
  for (double rate : {0.0, 0.002, 0.005, 0.01, 0.02, 0.05}) {
    RunningStats ar;
    Rng nrng(9);
    for (const Graph& g : graphs) {
      const QaoaAnsatz ansatz(g);
      const QaoaParams params = fixed.initialize(g, 1);
      NoiseModel noise;
      noise.two_qubit_error = rate;
      noise.single_qubit_error = rate / 10.0;
      const int trajectories = rate == 0.0 ? 1 : 60;
      const double e =
          noisy_expectation(g, params, noise, trajectories, nrng);
      ar.add(e / ansatz.engine().max_value());
    }
    if (rate == 0.0) noiseless_ar = ar.mean();
    noise_table.add_row({format_double(rate, 3),
                         format_double(ar.mean(), 4),
                         format_double(noiseless_ar - ar.mean(), 4)});
  }
  noise_table.print(std::cout);

  std::cout << "\nshape check: (a) error shrinks ~1/sqrt(shots) and "
               "tracks the predicted standard error; (b) AR decays toward "
               "the random-cut level (0.5/optimum-fraction) as the error "
               "rate grows - the NISQ budget pressure motivating warm "
               "starts.\n";
  return 0;
}
