#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/annotations.hpp"
#include "util/rng.hpp"

namespace qgnn {

using Amplitude = std::complex<double>;

/// Hard cap on simulable qubit counts, shared by every 2^n-sized component
/// (StateVector, Circuit, QaoaEvalEngine, QaoaAnsatz, dataset generation).
/// 2^20 amplitudes is 16 MiB per state — large enough for every
/// experiment in the repo (benches sweep to n = 18) while keeping
/// per-thread evaluation workspaces cheap enough to cache.
/// The bitmask-based Max-Cut brute-force solver has its own, higher cap
/// (26) because it never materializes a statevector.
inline constexpr int kMaxQubits = 20;

/// Exact statevector simulator for n-qubit pure states (n <= kMaxQubits).
///
/// Convention: qubit 0 is the least-significant bit of the basis-state
/// index, so |q_{n-1} ... q_1 q_0> maps to index sum q_k 2^k. This matches
/// the usual little-endian simulator convention (Qiskit-style).
///
/// QAOA on Max-Cut only needs product-state preparation, single-qubit
/// rotations, two-qubit ZZ rotations, and diagonal observables, all of
/// which have dedicated fast paths; general single-qubit and controlled
/// gates are provided for completeness and for testing.
class StateVector {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit StateVector(int num_qubits);

  /// Uniform superposition |+>^n (the QAOA initial state).
  static StateVector plus_state(int num_qubits);

  /// Computational basis state |index>.
  static StateVector basis_state(int num_qubits, std::uint64_t index);

  /// Reset this state to |+>^n in place, reusing the existing buffer. The
  /// workspace-reuse fast path: optimization loops re-prepare thousands of
  /// QAOA states and must not reallocate 2^n amplitudes each time.
  void set_plus_state();

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }

  const Amplitude& amplitude(std::uint64_t index) const;
  std::span<const Amplitude> amplitudes() const { return amps_; }
  std::span<Amplitude> mutable_amplitudes() { return amps_; }

  /// Apply an arbitrary 2x2 gate `m` (row-major: m00 m01 m10 m11) to
  /// `target`.
  void apply_single_qubit(const std::array<Amplitude, 4>& m, int target);

  /// Apply 2x2 gate `m` on `target` controlled on `control` being |1>.
  void apply_controlled(const std::array<Amplitude, 4>& m, int control,
                        int target);

  /// exp(-i theta/2 Z_a Z_b): the QAOA cost-layer primitive for one edge.
  void apply_rzz(double theta, int a, int b);

  /// Multiply each amplitude k by exp(-i gamma * diag[k]). `diag` must have
  /// `dimension()` entries. This is the whole-cost-layer fast path.
  void apply_diagonal_phase(std::span<const double> diag, double gamma);

  /// Multiply each amplitude k by table[index[k]]: the phase-table cost
  /// layer. `index` maps each basis state to its quantized diagonal level;
  /// the caller precomputes `table[l] = exp(-i gamma * level_l)` once per
  /// gamma, replacing 2^n sincos calls with 2^n table lookups.
  void apply_phase_table(std::span<const std::uint16_t> index,
                         std::span<const Amplitude> table)
      QGNN_BIT_IDENTICAL_PATH;

  /// Apply RX(theta) to EVERY qubit in one fused, cache-blocked sweep:
  /// the whole QAOA mixer layer e^{-i (theta/2) sum_v X_v}. Equivalent to
  /// n apply_single_qubit(rx(theta), q) calls (qubit order 0..n-1) but
  /// specialized to RX's [[c, -is], [-is, c]] structure (4 real FMAs per
  /// pair) and traversed block-wise so low-qubit passes stay L1-resident.
  void apply_rx_layer(double theta) QGNN_BIT_IDENTICAL_PATH;

  /// amps[k] = scale[k] * src[k] for all k: builds the adjoint-gradient
  /// seed lambda = D|psi> without a temporary.
  void assign_scaled(const StateVector& src, std::span<const double> scale);

  /// 2 * sum_k diag[k] * Im(conj(phi[k]) * amps[k]) = 2 Im<phi|D|psi>:
  /// the adjoint-gradient cost-layer overlap d<C>/dgamma.
  double phase_grad_overlap(const StateVector& phi,
                            std::span<const double> diag) const;

  /// 2 * Im<phi| B |psi> with B = sum_v X_v: the adjoint-gradient mixer
  /// overlap d<C>/dbeta.
  double mixer_grad_overlap(const StateVector& phi) const;

  /// Probability of measuring basis state `index`.
  double probability(std::uint64_t index) const;

  /// <psi| D |psi> for a diagonal observable D given by its diagonal.
  double expectation_diagonal(std::span<const double> diag) const;

  /// <psi| Z_q |psi>.
  double expectation_z(int qubit) const;

  /// Draw one measurement outcome in the computational basis.
  std::uint64_t sample(Rng& rng) const;

  /// Histogram of `shots` measurement outcomes.
  std::map<std::uint64_t, std::size_t> sample_counts(Rng& rng,
                                                     std::size_t shots) const;

  /// L2 norm of the state (1 for any valid state).
  double norm() const;

  /// <this|other>.
  Amplitude inner_product(const StateVector& other) const;

  /// |<this|other>|^2.
  double fidelity(const StateVector& other) const;

 private:
  void check_qubit(int q) const;

  int num_qubits_;
  std::vector<Amplitude> amps_;
};

}  // namespace qgnn
