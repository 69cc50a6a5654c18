#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

// The repo-wide SIMD kernel table (DESIGN.md §13). Every function here
// is a hot inner loop shared by the statevector, the QAOA eval engine
// (and through it every dataset label), or the GNN inference path; the
// accessors resolve against dispatch.hpp's active ISA.
//
// Equivalence tiers:
//   bit-identical — elementwise and pair-elementwise kernels. Every
//     variant computes the same scalar IEEE expression per output
//     element (explicit mul/add/sub intrinsics, never FMA, compiled
//     with -ffp-contract=off), so the bytes do not depend on the
//     selected ISA. This is a results contract: dataset labels, golden
//     files, and cross-process byte-identity tests all rely on it.
//   fast — reduction-shaped kernels (matmul inner products, scatter-add
//     row accumulation) additionally have an FMA-contracted variant,
//     selected only when KernelConfig::fast_reductions is set. Results
//     are tolerance-bounded against the scalar reference, not
//     bit-identical.
// Reductions whose summation order is pinned by the caller (statevector
// expectations, gradient overlaps) are NOT dispatched here: changing
// their combine tree would change labels.

namespace qgnn::simd {

// --- Interleaved statevector kernels (std::complex layout) -----------
// `amps` points at the re/im-interleaved doubles of a
// std::complex<double> array: amplitude k occupies amps[2k], amps[2k+1].
// `table` is likewise an interleaved complex phase table.

/// Multiply amplitude k by the unit phase table[lev[k]] for k in
/// [lo, hi) — the QaoaEvalEngine cost-layer apply:
///   re' = re * tr - im * ti,  im' = re * ti + im * tr.
/// Tier: bit-identical.
using PhaseTableFn = void (*)(double* amps, const std::uint16_t* lev,
                              const double* table, std::uint64_t lo,
                              std::uint64_t hi);

/// Apply RX qubits 0..nq-1, in ascending order, to one cache-resident
/// block of 2^nq amplitudes (the caller blocks and parallelizes). Per
/// pair (lo, hi) with rotation cosine c / sine s:
///   lo_re' = c*lo_re + s*hi_im,  lo_im' = c*lo_im - s*hi_re,
///   hi_re' = c*hi_re + s*lo_im,  hi_im' = c*hi_im - s*lo_re.
/// Tier: bit-identical.
using RxBlockFn = void (*)(double* amps, int nq, double c, double s);

/// One RX pair run: update the pairs (lo[x], hi[x]) for x in [0, count)
/// amplitudes, where lo/hi point at interleaved complex values. Used
/// for the strided cross-block passes of qubits at or above the block
/// size. Tier: bit-identical.
using RxPairsFn = void (*)(double* lo, double* hi, std::uint64_t count,
                           double c, double s);

/// amps[k] = scale[k] * src[k] for k in [lo, hi) (complex k, real
/// scale) — the adjoint sweep's diagonal apply. Tier: bit-identical.
using ScaledAssignFn = void (*)(double* amps, const double* src,
                                const double* scale, std::uint64_t lo,
                                std::uint64_t hi);

// --- Dense row kernels (GNN inference / autograd) --------------------

/// y[j] += a * x[j]. Bit-identical tier; scatter-add accumulation gets
/// an FMA fast variant under KernelConfig::fast_reductions.
using AxpyFn = void (*)(double* y, const double* x, double a, std::size_t n);

/// y[j] += x[j]. Tier: bit-identical.
using VaddFn = void (*)(double* y, const double* x, std::size_t n);

/// y[j] = x[j] * a. Tier: bit-identical.
using ScaleStoreFn = void (*)(double* y, const double* x, double a,
                              std::size_t n);

/// Row-major out[m x n] += a[m x k] * b[k x n]; `out` must be
/// zero-filled by the caller for a plain product. Cache-blocked with k
/// contributions accumulated in ascending order per output element, so
/// the vectorized variants stay bit-identical to the scalar loop; the
/// fast tier contracts the inner multiply-add into FMA.
using MatmulFn = void (*)(double* out, const double* a, const double* b,
                          std::size_t m, std::size_t k, std::size_t n);

// --- Accessors -------------------------------------------------------
// Resolved against active_isa() (and kernel_config() for the kernels
// with a fast tier) on every call; hot loops hoist the pointer.

PhaseTableFn phase_table();
RxBlockFn rx_block();
RxPairsFn rx_pairs();
ScaledAssignFn scaled_assign();
AxpyFn axpy();
VaddFn vadd();
ScaleStoreFn scale_store();
MatmulFn matmul();

}  // namespace qgnn::simd
