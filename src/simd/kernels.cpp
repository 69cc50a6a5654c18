#include "simd/kernels.hpp"

#include "simd/kernels_impl.hpp"

namespace qgnn::simd {

// Wide variants live in kernels_avx2.cpp / kernels_avx512.cpp, which
// are only compiled (with their ISA flags) when the toolchain supports
// them; the QGNN_SIMD_* definitions mirror that. Selection happens at
// runtime from CPU features, so the library still runs on baseline
// x86-64 and non-x86 hosts.
namespace detail {
#if defined(QGNN_SIMD_AVX2)
void rx_block_avx2(double* amps, int nq, double c, double s);
void rx_pairs_avx2(double* lo, double* hi, std::uint64_t count, double c,
                   double s);
void scaled_assign_avx2(double* amps, const double* src, const double* scale,
                        std::uint64_t lo, std::uint64_t hi);
void axpy_avx2(double* y, const double* x, double a, std::size_t n);
void axpy_avx2_fma(double* y, const double* x, double a, std::size_t n);
void vadd_avx2(double* y, const double* x, std::size_t n);
void scale_store_avx2(double* y, const double* x, double a, std::size_t n);
void matmul_avx2(double* out, const double* a, const double* b,
                 std::size_t m, std::size_t k, std::size_t n);
void matmul_avx2_fma(double* out, const double* a, const double* b,
                     std::size_t m, std::size_t k, std::size_t n);
#endif
#if defined(QGNN_SIMD_AVX512)
void phase_table_avx512(double* amps, const std::uint16_t* lev,
                        const double* table, std::uint64_t lo,
                        std::uint64_t hi);
void rx_block_avx512(double* amps, int nq, double c, double s);
void rx_pairs_avx512(double* lo, double* hi, std::uint64_t count, double c,
                     double s);
void scaled_assign_avx512(double* amps, const double* src,
                          const double* scale, std::uint64_t lo,
                          std::uint64_t hi);
void axpy_avx512(double* y, const double* x, double a, std::size_t n);
void axpy_avx512_fma(double* y, const double* x, double a, std::size_t n);
void vadd_avx512(double* y, const double* x, std::size_t n);
void scale_store_avx512(double* y, const double* x, double a,
                        std::size_t n);
void matmul_avx512(double* out, const double* a, const double* b,
                   std::size_t m, std::size_t k, std::size_t n);
void matmul_avx512_fma(double* out, const double* a, const double* b,
                       std::size_t m, std::size_t k, std::size_t n);
#endif
}  // namespace detail

namespace {

void phase_table_generic(double* amps, const std::uint16_t* lev,
                         const double* table, std::uint64_t lo,
                         std::uint64_t hi) {
  impl::phase_run_scalar(amps, lev, table, lo, hi);
}

void rx_block_generic(double* amps, int nq, double c, double s) {
  impl::rx_block_scalar(amps, nq, c, s);
}

void rx_pairs_generic(double* lo, double* hi, std::uint64_t count, double c,
                      double s) {
  impl::rx_pairs_scalar(lo, hi, count, c, s);
}

void scaled_assign_generic(double* amps, const double* src,
                           const double* scale, std::uint64_t lo,
                           std::uint64_t hi) {
  impl::scaled_assign_scalar(amps, src, scale, lo, hi);
}

void axpy_generic(double* y, const double* x, double a, std::size_t n) {
  impl::axpy_scalar(y, x, a, n);
}

void vadd_generic(double* y, const double* x, std::size_t n) {
  impl::vadd_scalar(y, x, n);
}

void scale_store_generic(double* y, const double* x, double a,
                         std::size_t n) {
  impl::scale_store_scalar(y, x, a, n);
}

void matmul_generic(double* out, const double* a, const double* b,
                    std::size_t m, std::size_t k, std::size_t n) {
  impl::matmul_scalar(out, a, b, m, k, n);
}

/// One row per kernel, one column per tier. The generic entries double
/// as the fast tier: with no wide registers there is no FMA variant to
/// select, so the flag is a no-op below AVX2.
struct KernelTable {
  PhaseTableFn phase_table = &phase_table_generic;
  RxBlockFn rx_block = &rx_block_generic;
  RxPairsFn rx_pairs = &rx_pairs_generic;
  ScaledAssignFn scaled_assign = &scaled_assign_generic;
  AxpyFn axpy = &axpy_generic;
  AxpyFn axpy_fast = &axpy_generic;
  VaddFn vadd = &vadd_generic;
  ScaleStoreFn scale_store = &scale_store_generic;
  MatmulFn matmul = &matmul_generic;
  MatmulFn matmul_fast = &matmul_generic;
};

/// Tables built once per process from CPU features. An ISA the CPU (or
/// build) lacks keeps generic entries, so forcing it through dispatch
/// can never execute an illegal instruction.
struct Tables {
  KernelTable generic;
  KernelTable avx2;
  KernelTable avx512;
};

Tables build_tables() {
  Tables t;
#if defined(QGNN_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    // phase_table stays generic: two 4-wide gathers per 4 states lose to
    // the scalar table loop (BM_PhaseTableIsa).
    t.avx2.rx_block = &detail::rx_block_avx2;
    t.avx2.rx_pairs = &detail::rx_pairs_avx2;
    t.avx2.scaled_assign = &detail::scaled_assign_avx2;
    t.avx2.axpy = &detail::axpy_avx2;
    t.avx2.axpy_fast = &detail::axpy_avx2;
    t.avx2.vadd = &detail::vadd_avx2;
    t.avx2.scale_store = &detail::scale_store_avx2;
    t.avx2.matmul = &detail::matmul_avx2;
    t.avx2.matmul_fast = &detail::matmul_avx2;
    // AVX2 does not architecturally imply FMA; the fast tier needs the
    // extra CPUID bit.
    if (__builtin_cpu_supports("fma")) {
      t.avx2.axpy_fast = &detail::axpy_avx2_fma;
      t.avx2.matmul_fast = &detail::matmul_avx2_fma;
    }
  }
#endif
#if defined(QGNN_SIMD_AVX512)
  if (__builtin_cpu_supports("avx512f")) {
    t.avx512.phase_table = &detail::phase_table_avx512;
    t.avx512.rx_block = &detail::rx_block_avx512;
    t.avx512.rx_pairs = &detail::rx_pairs_avx512;
    t.avx512.scaled_assign = &detail::scaled_assign_avx512;
    t.avx512.axpy = &detail::axpy_avx512;
    // FMA on 512-bit registers is part of AVX-512F itself.
    t.avx512.axpy_fast = &detail::axpy_avx512_fma;
    t.avx512.vadd = &detail::vadd_avx512;
    t.avx512.scale_store = &detail::scale_store_avx512;
    t.avx512.matmul = &detail::matmul_avx512;
    t.avx512.matmul_fast = &detail::matmul_avx512_fma;
  }
#endif
  return t;
}

const KernelTable& active_table() {
  static const Tables tables = build_tables();
  switch (active_isa()) {
    case Isa::kAvx512:
      return tables.avx512;
    case Isa::kAvx2:
      return tables.avx2;
    case Isa::kGeneric:
      break;
  }
  return tables.generic;
}

}  // namespace

PhaseTableFn phase_table() { return active_table().phase_table; }

RxBlockFn rx_block() { return active_table().rx_block; }

RxPairsFn rx_pairs() { return active_table().rx_pairs; }

ScaledAssignFn scaled_assign() { return active_table().scaled_assign; }

AxpyFn axpy() {
  const KernelTable& t = active_table();
  return kernel_config().fast_reductions ? t.axpy_fast : t.axpy;
}

VaddFn vadd() { return active_table().vadd; }

ScaleStoreFn scale_store() { return active_table().scale_store; }

MatmulFn matmul() {
  const KernelTable& t = active_table();
  return kernel_config().fast_reductions ? t.matmul_fast : t.matmul;
}

}  // namespace qgnn::simd
