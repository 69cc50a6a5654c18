// AVX2 kernel variants. Compiled with -mavx2 -mfma -ffp-contract=off:
// contraction is off, so the compiler never fuses the bit-identical
// tier's explicit mul/add intrinsics — each element follows the exact
// rounding sequence of the scalar reference. FMA instructions appear
// only in the *_fma fast-tier kernels, written with explicit fmadd
// intrinsics and selected solely under KernelConfig::fast_reductions
// (and only when CPUID reports FMA).

#if defined(QGNN_SIMD_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels_impl.hpp"

namespace qgnn::simd::detail {

namespace {

// --- interleaved-layout helpers (statevector) -----------------------

// Sign masks for XOR-based sign flips. Flipping the sign bit is exact,
// and a + (-b) produces the same bits as a - b, so a single
// add-after-flip covers both signs of a butterfly with the scalar
// rounding sequence.
inline __m256d negate_odd_lanes() {
  return _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
}

inline __m256d negate_even_lanes() {
  return _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
}

// One interleaved RX pair step on full registers: vl/vh hold two
// complex amplitudes each ([re0, im0, re1, im1]). Per pair
//   lo' = {c*lr + s*him, c*li - s*hre},
//   hi' = {c*hr + s*lim, c*him - s*lre},
// i.e. out = c*v + (+,-)-signed s*swap_within_complex(partner).
inline void rx_pair_step(__m256d vl, __m256d vh, __m256d vc, __m256d vs,
                         __m256d sign, __m256d* out_l, __m256d* out_h) {
  const __m256d ph = _mm256_permute_pd(vh, 0x5);  // [im, re] per complex
  const __m256d pl = _mm256_permute_pd(vl, 0x5);
  *out_l = _mm256_add_pd(_mm256_mul_pd(vc, vl),
                         _mm256_xor_pd(_mm256_mul_pd(vs, ph), sign));
  *out_h = _mm256_add_pd(_mm256_mul_pd(vc, vh),
                         _mm256_xor_pd(_mm256_mul_pd(vs, pl), sign));
}

// Interleaved qubit-0 butterfly: the register holds one full pair
// [lre, lim, hre, him]; the partner operand is the full reverse.
inline __m256d butterfly0_interleaved(__m256d v, __m256d vc, __m256d vs,
                                      __m256d sign) {
  const __m256d w = _mm256_permute4x64_pd(v, 0x1B);  // [him, hre, lim, lre]
  return _mm256_add_pd(_mm256_mul_pd(vc, v),
                       _mm256_xor_pd(_mm256_mul_pd(vs, w), sign));
}

// Interleaved complex multiply of two amplitudes by two table phases:
// v = [re0, im0, re1, im1], t = [tr0, ti0, tr1, ti1]. Per complex
//   re' = re*tr - im*ti,  im' = re*ti + im*tr
// = dup_re(v)*t + (-,+)-signed dup_im(v)*swap(t).
inline __m256d complex_mul_interleaved(__m256d v, __m256d t, __m256d sign) {
  const __m256d va = _mm256_movedup_pd(v);       // [re0, re0, re1, re1]
  const __m256d vb = _mm256_permute_pd(v, 0xF);  // [im0, im0, im1, im1]
  const __m256d ts = _mm256_permute_pd(t, 0x5);  // [ti0, tr0, ti1, tr1]
  return _mm256_add_pd(_mm256_mul_pd(va, t),
                       _mm256_xor_pd(_mm256_mul_pd(vb, ts), sign));
}

}  // namespace

// --- interleaved-layout kernels -------------------------------------

void phase_table_avx2(double* amps, const std::uint16_t* lev,
                      const double* table, std::uint64_t lo,
                      std::uint64_t hi) {
  const __m256d sign = negate_even_lanes();
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::uint64_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    // Gather tr/ti for 4 states (table stride is one complex = 16
    // bytes, hence index 2*lev at scale 8), then interleave them back
    // into the amplitude layout.
    const __m128i lev16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lev + k));
    const __m128i idx = _mm_slli_epi32(_mm_cvtepu16_epi32(lev16), 1);
    const __m256d tr =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), table, idx, ones, 8);
    const __m256d ti = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                table + 1, idx, ones, 8);
    const __m256d unlo = _mm256_unpacklo_pd(tr, ti);  // [t0, t2] pairs
    const __m256d unhi = _mm256_unpackhi_pd(tr, ti);  // [t1, t3] pairs
    const __m256d t01 = _mm256_permute2f128_pd(unlo, unhi, 0x20);
    const __m256d t23 = _mm256_permute2f128_pd(unlo, unhi, 0x31);
    const __m256d v01 = _mm256_loadu_pd(amps + 2 * k);
    const __m256d v23 = _mm256_loadu_pd(amps + 2 * k + 4);
    _mm256_storeu_pd(amps + 2 * k, complex_mul_interleaved(v01, t01, sign));
    _mm256_storeu_pd(amps + 2 * k + 4,
                     complex_mul_interleaved(v23, t23, sign));
  }
  impl::phase_run_scalar(amps, lev, table, k, hi);
}

void rx_pairs_avx2(double* lo, double* hi, std::uint64_t count, double c,
                   double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d sign = negate_odd_lanes();
  std::uint64_t x = 0;
  for (; x + 2 <= count; x += 2) {
    __m256d nl;
    __m256d nh;
    rx_pair_step(_mm256_loadu_pd(lo + 2 * x), _mm256_loadu_pd(hi + 2 * x),
                 vc, vs, sign, &nl, &nh);
    _mm256_storeu_pd(lo + 2 * x, nl);
    _mm256_storeu_pd(hi + 2 * x, nh);
  }
  impl::rx_pairs_scalar(lo + 2 * x, hi + 2 * x, count - x, c, s);
}

void rx_block_avx2(double* amps, int nq, double c, double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d sign = negate_odd_lanes();
  const std::uint64_t bsize = std::uint64_t{1} << nq;
  // Qubit 0: each register holds one full pair; butterfly in-register.
  for (std::uint64_t k = 0; k < bsize; k += 2) {
    const __m256d v = _mm256_loadu_pd(amps + 2 * k);
    _mm256_storeu_pd(amps + 2 * k, butterfly0_interleaved(v, vc, vs, sign));
  }
  // Qubits 1..nq-1: pair strides of >= 2 complexes, a full vector per
  // side (rx_pairs_avx2 never hits its scalar tail here).
  for (int q = 1; q < nq; ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    for (std::uint64_t g0 = 0; g0 < bsize; g0 += bit << 1) {
      rx_pairs_avx2(amps + 2 * g0, amps + 2 * (g0 + bit), bit, c, s);
    }
  }
}

void scaled_assign_avx2(double* amps, const double* src, const double* scale,
                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    const __m256d s4 = _mm256_loadu_pd(scale + k);
    const __m256d s01 = _mm256_permute4x64_pd(s4, 0x50);  // [s0,s0,s1,s1]
    const __m256d s23 = _mm256_permute4x64_pd(s4, 0xFA);  // [s2,s2,s3,s3]
    _mm256_storeu_pd(amps + 2 * k,
                     _mm256_mul_pd(s01, _mm256_loadu_pd(src + 2 * k)));
    _mm256_storeu_pd(amps + 2 * k + 4,
                     _mm256_mul_pd(s23, _mm256_loadu_pd(src + 2 * k + 4)));
  }
  impl::scaled_assign_scalar(amps, src, scale, k, hi);
}

// --- dense row kernels ----------------------------------------------

void axpy_avx2(double* y, const double* x, double a, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_add_pd(_mm256_loadu_pd(y + j),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + j))));
  }
  impl::axpy_scalar(y + j, x + j, a, n - j);
}

void axpy_avx2_fma(double* y, const double* x, double a, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(y + j, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j),
                                            _mm256_loadu_pd(y + j)));
  }
  impl::axpy_scalar(y + j, x + j, a, n - j);
}

void vadd_avx2(double* y, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_add_pd(_mm256_loadu_pd(y + j), _mm256_loadu_pd(x + j)));
  }
  impl::vadd_scalar(y + j, x + j, n - j);
}

void scale_store_avx2(double* y, const double* x, double a, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(y + j, _mm256_mul_pd(_mm256_loadu_pd(x + j), va));
  }
  impl::scale_store_scalar(y + j, x + j, a, n - j);
}

namespace {

// Shared matmul skeleton: same tiling as the scalar reference, inner j
// loop vectorized with the k-tile accumulated in registers. For each
// output element the k contributions still combine in ascending order
// (intermediate stores never change rounding), so with the mul/add step
// this is bit-identical to the scalar loop; the fmadd step is the fast
// tier.
template <typename Step>
inline void matmul_tiled_avx2(double* out, const double* a, const double* b,
                              std::size_t m, std::size_t kdim,
                              std::size_t n, const Step& step) {
  for (std::size_t j0 = 0; j0 < n; j0 += impl::kMatmulTileJ) {
    const std::size_t j1 = std::min(n, j0 + impl::kMatmulTileJ);
    for (std::size_t k0 = 0; k0 < kdim; k0 += impl::kMatmulTileK) {
      const std::size_t k1 = std::min(kdim, k0 + impl::kMatmulTileK);
      for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a + i * kdim;
        double* orow = out + i * n;
        std::size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          __m256d acc = _mm256_loadu_pd(orow + j);
          for (std::size_t k = k0; k < k1; ++k) {
            acc = step(_mm256_set1_pd(arow[k]), _mm256_loadu_pd(b + k * n + j),
                       acc);
          }
          _mm256_storeu_pd(orow + j, acc);
        }
        for (; j < j1; ++j) {
          double acc = orow[j];
          for (std::size_t k = k0; k < k1; ++k) acc += arow[k] * b[k * n + j];
          orow[j] = acc;
        }
      }
    }
  }
}

}  // namespace

void matmul_avx2(double* out, const double* a, const double* b,
                 std::size_t m, std::size_t k, std::size_t n) {
  matmul_tiled_avx2(out, a, b, m, k, n,
                    [](__m256d av, __m256d bv, __m256d acc) {
                      return _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
                    });
}

void matmul_avx2_fma(double* out, const double* a, const double* b,
                     std::size_t m, std::size_t k, std::size_t n) {
  matmul_tiled_avx2(out, a, b, m, k, n,
                    [](__m256d av, __m256d bv, __m256d acc) {
                      return _mm256_fmadd_pd(av, bv, acc);
                    });
}

}  // namespace qgnn::simd::detail

#endif  // QGNN_SIMD_AVX2
