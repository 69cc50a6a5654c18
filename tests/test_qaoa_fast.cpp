#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/eval_engine.hpp"
#include "qaoa/optimize.hpp"
#include "quantum/gates.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {
namespace {

QaoaParams random_params(int depth, Rng& rng) {
  std::vector<double> gammas(depth), betas(depth);
  for (int l = 0; l < depth; ++l) {
    gammas[static_cast<std::size_t>(l)] = rng.uniform(-3.0, 3.0);
    betas[static_cast<std::size_t>(l)] = rng.uniform(-1.5, 1.5);
  }
  return QaoaParams(std::move(gammas), std::move(betas));
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tol) {
  ASSERT_EQ(a.dimension(), b.dimension());
  for (std::uint64_t k = 0; k < a.dimension(); ++k) {
    EXPECT_NEAR(a.amplitude(k).real(), b.amplitude(k).real(), tol) << k;
    EXPECT_NEAR(a.amplitude(k).imag(), b.amplitude(k).imag(), tol) << k;
  }
}

// --- Phase-table cost layer ---------------------------------------------

TEST(PhaseTable, BitIdenticalToGenericSincosOnMaxcutDiagonals) {
  Rng rng(11);
  for (int n = 4; n <= 10; n += 2) {
    const Graph g = erdos_renyi_graph(n, 0.5, rng);
    const QaoaAnsatz ansatz(g);
    ASSERT_TRUE(ansatz.engine().phase_table_active());
    for (int trial = 0; trial < 5; ++trial) {
      const double gamma = rng.uniform(-4.0, 4.0);
      StateVector fast = StateVector::plus_state(n);
      StateVector ref = StateVector::plus_state(n);
      std::vector<Amplitude> table;
      ansatz.engine().apply_cost_layer(fast, gamma, table);
      ref.apply_diagonal_phase(ansatz.engine().diagonal(), gamma);
      for (std::uint64_t k = 0; k < fast.dimension(); ++k) {
        // Exact ==: the table stores the same cos/sin the generic path
        // computes, so the fast layer must be bit-identical, not just
        // close.
        EXPECT_EQ(fast.amplitude(k), ref.amplitude(k)) << k;
      }
    }
  }
}

TEST(PhaseTable, SortedLevelPathHandlesWeightedGraphs) {
  Rng rng(12);
  const Graph g =
      with_random_weights(erdos_renyi_graph(8, 0.6, rng), 0.1, 2.0, rng);
  const QaoaAnsatz ansatz(g);
  // Weighted cut values are not small integers; the engine must fall back
  // to sorted distinct levels and still be active (few distinct sums).
  EXPECT_TRUE(ansatz.engine().phase_table_active());
  Rng prng(13);
  const QaoaParams params = random_params(2, prng);
  const StateVector ref = ansatz.engine().prepare_state_reference(params);
  EvalWorkspace ws;
  expect_states_close(ansatz.engine().prepare_state(params, ws), ref, 1e-12);
}

TEST(PhaseTable, FallbackPathMatchesWhenLevelBudgetExceeded) {
  Rng rng(14);
  const int n = 8;
  std::vector<double> diag(std::size_t{1} << n);
  for (double& v : diag) v = rng.uniform(0.0, 5.0);  // all distinct
  const QaoaEvalEngine engine(n, diag, /*max_levels=*/16);
  EXPECT_FALSE(engine.phase_table_active());
  EXPECT_EQ(engine.num_levels(), 0u);
  const QaoaParams params = random_params(2, rng);
  EXPECT_NEAR(engine.expectation(params), engine.expectation_reference(params),
              1e-12);
}

TEST(PhaseTable, NonFiniteDiagonalDisablesTable) {
  std::vector<double> diag(16, 1.0);
  diag[3] = std::numeric_limits<double>::quiet_NaN();
  const QaoaEvalEngine engine(4, diag);
  EXPECT_FALSE(engine.phase_table_active());
}

// --- Fused RX mixer layer -----------------------------------------------

TEST(FusedRxLayer, MatchesPerQubitGenericGates) {
  Rng rng(21);
  // n = 14 exceeds both the cache block (2^12) and the parallel threshold
  // (2^14), so the blocked, strided, and pool-dispatched paths all run.
  for (int n : {3, 6, 11, 13, 14}) {
    StateVector fast = StateVector::plus_state(n);
    StateVector ref = StateVector::plus_state(n);
    // Random diagonal phases first so the state has no special structure.
    std::vector<double> diag(std::size_t{1} << n);
    for (double& v : diag) v = rng.uniform(0.0, 4.0);
    fast.apply_diagonal_phase(diag, 0.7);
    ref.apply_diagonal_phase(diag, 0.7);

    const double theta = rng.uniform(-3.0, 3.0);
    fast.apply_rx_layer(theta);
    const auto rx = gates::rx(theta);
    for (int q = 0; q < n; ++q) ref.apply_single_qubit(rx, q);
    expect_states_close(fast, ref, 1e-12);
  }
}

// --- Whole-ansatz equivalence -------------------------------------------

TEST(EvalEngine, PreparedStateMatchesReferenceImplementation) {
  Rng rng(31);
  EvalWorkspace ws;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + trial % 6;
    const int depth = 1 + trial % 3;
    const Graph g = erdos_renyi_graph(n, 0.5, rng);
    const QaoaAnsatz ansatz(g);
    const QaoaParams params = random_params(depth, rng);
    const StateVector ref = ansatz.engine().prepare_state_reference(params);
    expect_states_close(ansatz.engine().prepare_state(params, ws), ref, 1e-12);
    EXPECT_NEAR(ansatz.engine().expectation(params, ws),
                ansatz.engine().expectation_reference(params), 1e-12);
  }
}

TEST(EvalEngine, WorkspaceReuseIsDeterministic) {
  Rng rng(33);
  const Graph g = erdos_renyi_graph(8, 0.5, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaParams a = random_params(2, rng);
  const QaoaParams b = random_params(2, rng);
  EvalWorkspace ws;
  const double first_a = ansatz.engine().expectation(a, ws);
  const double first_b = ansatz.engine().expectation(b, ws);
  for (int i = 0; i < 5; ++i) {
    // Interleaved re-evaluations through one workspace must be bit-stable:
    // nothing may leak from the previous preparation.
    EXPECT_EQ(ansatz.engine().expectation(b, ws), first_b);
    EXPECT_EQ(ansatz.engine().expectation(a, ws), first_a);
  }
}

// --- Adjoint gradients ---------------------------------------------------

TEST(AdjointGradient, MatchesFiniteDifferences) {
  Rng rng(41);
  EvalWorkspace ws;
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 5 + trial % 4;
    const int depth = 1 + trial % 3;
    const Graph g = erdos_renyi_graph(n, 0.6, rng);
    const QaoaAnsatz ansatz(g);
    const QaoaEvalEngine& engine = ansatz.engine();
    const QaoaParams params = random_params(depth, rng);

    std::vector<double> grad;
    const double value = engine.value_and_gradient(params, grad, ws);
    EXPECT_NEAR(value, engine.expectation(params, ws), 1e-12);
    ASSERT_EQ(grad.size(), static_cast<std::size_t>(2 * depth));

    const Objective f = [&](const std::vector<double>& flat) {
      return engine.expectation(QaoaParams::from_flat(flat), ws);
    };
    const std::vector<double> fd =
        finite_difference_gradient(f, params.flatten(), 1e-6);
    for (std::size_t i = 0; i < fd.size(); ++i) {
      EXPECT_NEAR(grad[i], fd[i], 1e-5 * std::max(1.0, std::abs(fd[i])))
          << "component " << i << " (n=" << n << ", depth=" << depth << ")";
    }
  }
}

TEST(AdjointGradient, GradientAdamMatchesFiniteDifferenceAdamQuality) {
  Rng rng(42);
  const Graph g = erdos_renyi_graph(8, 0.5, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaEvalEngine& engine = ansatz.engine();
  EvalWorkspace ws;

  const std::vector<double> start = {0.4, 0.3};
  AdamConfig config;
  config.max_iterations = 150;

  const GradientObjective fg = [&](const std::vector<double>& flat,
                                   std::vector<double>& grad) {
    return engine.value_and_gradient(QaoaParams::from_flat(flat), grad, ws);
  };
  const OptResult adjoint = adam_maximize(fg, start, config);

  const Objective f = [&](const std::vector<double>& flat) {
    return engine.expectation(QaoaParams::from_flat(flat), ws);
  };
  const OptResult fd = adam_maximize(f, start, config);

  // Same optimizer, same start, analytic vs FD gradient: both must land on
  // (essentially) the same optimum.
  EXPECT_NEAR(adjoint.best_value, fd.best_value, 1e-6);
  EXPECT_GT(adjoint.best_value, engine.expectation(
                                    QaoaParams::from_flat(start), ws));
}

// --- Thread-count invariance --------------------------------------------

TEST(QaoaFastParallel, ExpectationAndGradientAreThreadCountInvariant) {
  Rng rng(51);
  // 2^15 amplitudes: all kernels cross the parallel threshold.
  const int n = 15;
  const Graph g = erdos_renyi_graph(n, 0.3, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = random_params(2, rng);

  const int original = ThreadPool::configured_threads();
  double base_value = 0.0;
  std::vector<double> base_grad;
  for (int threads : {1, 3, 8}) {
    ThreadPool::set_global_threads(threads);
    EvalWorkspace ws;
    std::vector<double> grad;
    const double value = ansatz.engine().value_and_gradient(params, grad, ws);
    const double expect = ansatz.engine().expectation(params, ws);
    if (threads == 1) {
      base_value = value;
      base_grad = grad;
    } else {
      // Bit-identical, not merely close: chunk boundaries are fixed by the
      // range, never by the lane count.
      EXPECT_EQ(value, base_value);
      ASSERT_EQ(grad.size(), base_grad.size());
      for (std::size_t i = 0; i < grad.size(); ++i) {
        EXPECT_EQ(grad[i], base_grad[i]) << "component " << i;
      }
    }
    EXPECT_EQ(expect, value);
  }
  ThreadPool::set_global_threads(original);
}

// --- Qubit cap ----------------------------------------------------------

TEST(QubitCap, EnforcedConsistentlyAcrossLayers) {
  EXPECT_THROW(StateVector(kMaxQubits + 1), InvalidArgument);
  EXPECT_THROW(
      QaoaEvalEngine(kMaxQubits + 1,
                     std::vector<double>(1, 0.0)),  // size check comes later
      InvalidArgument);
  EXPECT_THROW(QaoaEvalEngine(kMaxQubits + 1, std::vector<std::uint16_t>(1)),
               InvalidArgument);
  EXPECT_THROW(QaoaEvalEngine(2, std::vector<std::uint16_t>(3)),
               InvalidArgument);
  EXPECT_NO_THROW(StateVector{kMaxQubits});
}

}  // namespace
}  // namespace qgnn
