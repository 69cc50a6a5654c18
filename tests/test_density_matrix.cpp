#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "qaoa/fixed_angles.hpp"
#include "qaoa/noise.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace qgnn {
namespace {

constexpr double kTol = 1e-10;

TEST(DensityMatrix, PureZeroState) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.probability(0), 1.0, kTol);
  EXPECT_TRUE(rho.is_hermitian());
}

TEST(DensityMatrix, FromStateMatchesOuterProduct) {
  StateVector psi = StateVector::plus_state(2);
  const DensityMatrix rho = DensityMatrix::from_state(psi);
  for (std::uint64_t r = 0; r < 4; ++r) {
    for (std::uint64_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(std::abs(rho.element(r, c) - Amplitude{0.25, 0.0}), 0.0,
                  kTol);
    }
  }
  EXPECT_NEAR(rho.fidelity(psi), 1.0, kTol);
}

TEST(DensityMatrix, MaximallyMixed) {
  const DensityMatrix rho = DensityMatrix::maximally_mixed(3);
  EXPECT_NEAR(rho.trace(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0 / 8.0, kTol);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStateVector) {
  // Same random circuit on both simulators; fidelity must stay 1.
  Rng rng(3);
  StateVector psi = StateVector::plus_state(3);
  DensityMatrix rho = DensityMatrix::from_state(psi);
  for (int step = 0; step < 15; ++step) {
    const int q = rng.uniform_int(0, 2);
    const int q2 = (q + 1 + rng.uniform_int(0, 1)) % 3;
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const auto gate = gates::rx(rng.uniform(0, 6.28));
        psi.apply_single_qubit(gate, q);
        rho.apply_single_qubit(gate, q);
        break;
      }
      case 1: {
        psi.apply_rzz(1.1, q, q2);
        rho.apply_rzz(1.1, q, q2);
        break;
      }
      default: {
        psi.apply_controlled(gates::pauli_x(), q, q2);
        rho.apply_controlled(gates::pauli_x(), q, q2);
        break;
      }
    }
  }
  EXPECT_NEAR(rho.fidelity(psi), 1.0, 1e-9);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);
  EXPECT_TRUE(rho.is_hermitian());
}

TEST(DensityMatrix, DiagonalPhaseMatchesStateVector) {
  const Graph g = cycle_graph(4);
  const QaoaAnsatz ansatz(g);
  const std::span<const double> cost = ansatz.engine().diagonal();
  StateVector psi = StateVector::plus_state(4);
  DensityMatrix rho = DensityMatrix::from_state(psi);
  psi.apply_diagonal_phase(cost, 0.73);
  rho.apply_diagonal_phase(cost, 0.73);
  EXPECT_NEAR(rho.fidelity(psi), 1.0, 1e-9);
}

TEST(DensityMatrix, DepolarizingDrivesTowardMixed) {
  DensityMatrix rho(1);  // |0><0|
  EXPECT_NEAR(rho.probability(0), 1.0, kTol);
  // Full depolarizing (p = 3/4) sends any state to I/2.
  rho.apply_depolarizing(0, 0.75);
  EXPECT_NEAR(rho.probability(0), 0.5, kTol);
  EXPECT_NEAR(rho.probability(1), 0.5, kTol);
  EXPECT_NEAR(rho.purity(), 0.5, kTol);
}

TEST(DensityMatrix, DepolarizingReducesPurityMonotonically) {
  DensityMatrix rho = DensityMatrix::from_state(StateVector::plus_state(2));
  double previous = rho.purity();
  for (int step = 0; step < 5; ++step) {
    rho.apply_depolarizing(0, 0.1);
    rho.apply_depolarizing(1, 0.1);
    const double p = rho.purity();
    EXPECT_LT(p, previous);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
    previous = p;
  }
}

TEST(DensityMatrix, DephasingKillsCoherencesKeepsPopulations) {
  // Phase-flip channel: coherences scale by (1 - 2p); p = 1/2 dephases
  // completely, p = 1 is a deterministic Z (coherence sign flip).
  StateVector psi(1);
  psi.apply_single_qubit(gates::hadamard(), 0);

  DensityMatrix partial = DensityMatrix::from_state(psi);
  partial.apply_dephasing(0, 0.25);
  EXPECT_NEAR(partial.element(0, 1).real(), 0.5 * (1.0 - 2.0 * 0.25), kTol);

  DensityMatrix full = DensityMatrix::from_state(psi);
  full.apply_dephasing(0, 0.5);  // complete dephasing
  EXPECT_NEAR(full.probability(0), 0.5, kTol);
  EXPECT_NEAR(full.probability(1), 0.5, kTol);
  EXPECT_NEAR(std::abs(full.element(0, 1)), 0.0, kTol);

  DensityMatrix flip = DensityMatrix::from_state(psi);
  flip.apply_dephasing(0, 1.0);  // pure Z: coherence magnitude preserved
  EXPECT_NEAR(std::abs(flip.element(0, 1)), 0.5, kTol);
}

TEST(DensityMatrix, AmplitudeDampingDecaysToGround) {
  StateVector psi = StateVector::basis_state(1, 1);  // |1>
  DensityMatrix rho = DensityMatrix::from_state(psi);
  rho.apply_amplitude_damping(0, 0.3);
  EXPECT_NEAR(rho.probability(1), 0.7, kTol);
  EXPECT_NEAR(rho.probability(0), 0.3, kTol);
  rho.apply_amplitude_damping(0, 1.0);
  EXPECT_NEAR(rho.probability(0), 1.0, kTol);
}

TEST(DensityMatrix, ChannelValidation) {
  DensityMatrix rho(1);
  // Non-trace-preserving "channel" (just a projector) must be rejected.
  std::vector<std::array<Amplitude, 4>> bad{
      {Amplitude{1, 0}, Amplitude{0, 0}, Amplitude{0, 0}, Amplitude{0, 0}}};
  EXPECT_THROW(rho.apply_channel(bad, 0), InvalidArgument);
  EXPECT_THROW(depolarizing_kraus(1.5), InvalidArgument);
  EXPECT_THROW(DensityMatrix(13), InvalidArgument);
}

TEST(DensityMatrix, KrausSetsAreTracePreserving) {
  for (const auto& kraus :
       {depolarizing_kraus(0.3), dephasing_kraus(0.4),
        amplitude_damping_kraus(0.25)}) {
    std::array<Amplitude, 4> sum{};
    for (const auto& k : kraus) {
      const auto p = gates::multiply(gates::adjoint(k), k);
      for (std::size_t i = 0; i < 4; ++i) sum[i] += p[i];
    }
    EXPECT_NEAR(std::abs(sum[0] - Amplitude{1, 0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(sum[3] - Amplitude{1, 0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(sum[1]), 0.0, kTol);
    EXPECT_NEAR(std::abs(sum[2]), 0.0, kTol);
  }
}

TEST(NoiseCrossValidation, TrajectoryAverageMatchesDensityMatrix) {
  // The headline cross-check: the stochastic Pauli trajectory sampler and
  // the exact Kraus-channel density matrix must agree on <C>.
  Rng rng(21);
  const Graph g = random_regular_graph(6, 3, rng);
  const QaoaParams params = *fixed_angles(3, 1);
  NoiseModel noise;
  noise.two_qubit_error = 0.05;
  noise.single_qubit_error = 0.01;

  const double exact = exact_noisy_expectation(g, params, noise);

  Rng traj_rng(5);
  const double mc = noisy_expectation(g, params, noise, 3000, traj_rng);
  // MC error ~ sigma/sqrt(3000); generous tolerance.
  EXPECT_NEAR(mc, exact, 0.08);

  // And the noiseless limits agree with the pure-state fast path.
  NoiseModel clean;
  clean.single_qubit_error = 0.0;
  clean.two_qubit_error = 0.0;
  const QaoaAnsatz ansatz(g);
  EXPECT_NEAR(exact_noisy_expectation(g, params, clean),
              ansatz.expectation(params), 1e-9);
}

TEST(NoiseCrossValidation, ExactNoisyExpectationBelowClean) {
  Rng rng(9);
  const Graph g = random_regular_graph(8, 3, rng);
  const QaoaParams params = *fixed_angles(3, 1);
  const QaoaAnsatz ansatz(g);
  NoiseModel noise;
  noise.two_qubit_error = 0.02;
  noise.single_qubit_error = 0.002;
  EXPECT_LT(exact_noisy_expectation(g, params, noise),
            ansatz.expectation(params));
}

}  // namespace
}  // namespace qgnn
