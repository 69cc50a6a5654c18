// AVX-512F kernel variants. Same contract as the AVX2 file: compiled
// with -ffp-contract=off so the bit-identical tier's explicit
// mul/add/sub intrinsics are never fused — the 8-wide arithmetic
// rounds exactly like the scalar reference and the emitted bytes do
// not depend on the selected instruction set. FMA appears only in the
// *_fma fast-tier kernels (explicit fmadd intrinsics, opt-in through
// KernelConfig::fast_reductions).

#if defined(QGNN_SIMD_AVX512)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels_impl.hpp"

namespace qgnn::simd::detail {

namespace {

// --- interleaved-layout helpers (statevector) -----------------------

// _mm512_xor_pd needs AVX512DQ; the integer-domain XOR is plain
// AVX512F and flips the same bits.
inline __m512d xor_pd(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(a),
                                              _mm512_castpd_si512(b)));
}

// Full-mask zero-source wrappers for the shuffles whose plain forms go
// through _mm512_undefined_pd (flagged by GCC 12's
// -Wmaybe-uninitialized). Same instructions, defined source.
inline constexpr __mmask8 kAll = static_cast<__mmask8>(0xff);

template <int kImm>
inline __m512d permute_pd(__m512d v) {
  return _mm512_mask_permute_pd(_mm512_setzero_pd(), kAll, v, kImm);
}

inline __m512d permutexvar_pd(__m512i idx, __m512d v) {
  return _mm512_mask_permutexvar_pd(_mm512_setzero_pd(), kAll, idx, v);
}

inline __m512d movedup_pd(__m512d v) {
  return _mm512_mask_movedup_pd(_mm512_setzero_pd(), kAll, v);
}

inline __m512d negate_odd_lanes() {
  return _mm512_setr_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}

inline __m512d negate_even_lanes() {
  return _mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
}

// One interleaved RX pair step on full registers: vl/vh hold four
// complex amplitudes each. See the AVX2 twin for the derivation; the
// sign flip by XOR is exact and a + (-b) matches a - b bitwise.
inline void rx_pair_step(__m512d vl, __m512d vh, __m512d vc, __m512d vs,
                         __m512d sign, __m512d* out_l, __m512d* out_h) {
  const __m512d ph = permute_pd<0x55>(vh);  // [im, re] per complex
  const __m512d pl = permute_pd<0x55>(vl);
  *out_l = _mm512_add_pd(_mm512_mul_pd(vc, vl),
                         xor_pd(_mm512_mul_pd(vs, ph), sign));
  *out_h = _mm512_add_pd(_mm512_mul_pd(vc, vh),
                         xor_pd(_mm512_mul_pd(vs, pl), sign));
}

// Interleaved butterflies for qubits 0..1: one register holds four
// complex amplitudes = two qubit-0 pairs = one qubit-1 pair group.
// Qubit 0 partner: the adjacent complex with re/im swapped (reverse
// within each 256-bit lane). Qubit 1 partner: the complex two away
// with re/im swapped (cross-lane permute).
inline __m512d butterflies01_interleaved(__m512d v, __m512d vc, __m512d vs,
                                         __m512d sign) {
  const __m512d w0 =
      _mm512_mask_permutex_pd(_mm512_setzero_pd(), kAll, v, 0x1B);
  const __m512d v1 = _mm512_add_pd(
      _mm512_mul_pd(vc, v), xor_pd(_mm512_mul_pd(vs, w0), sign));
  const __m512i idx1 = _mm512_setr_epi64(5, 4, 7, 6, 1, 0, 3, 2);
  const __m512d w1 = permutexvar_pd(idx1, v1);
  return _mm512_add_pd(_mm512_mul_pd(vc, v1),
                       xor_pd(_mm512_mul_pd(vs, w1), sign));
}

// Interleaved complex multiply of four amplitudes by four table
// phases; see the AVX2 twin for the lane derivation.
inline __m512d complex_mul_interleaved(__m512d v, __m512d t, __m512d sign) {
  const __m512d va = movedup_pd(v);
  const __m512d vb = permute_pd<0xFF>(v);
  const __m512d ts = permute_pd<0x55>(t);
  return _mm512_add_pd(_mm512_mul_pd(va, t),
                       xor_pd(_mm512_mul_pd(vb, ts), sign));
}

}  // namespace

// --- interleaved-layout kernels -------------------------------------

void phase_table_avx512(double* amps, const std::uint16_t* lev,
                        const double* table, std::uint64_t lo,
                        std::uint64_t hi) {
  const __m512d sign = negate_even_lanes();
  constexpr __mmask8 all = static_cast<__mmask8>(0xff);
  // permutex2var indices interleaving tr (operand a, lanes 0..7) with
  // ti (operand b, lanes 8..15) back into the amplitude layout.
  const __m512i ilo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i ihi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  std::uint64_t k = lo;
  for (; k + 8 <= hi; k += 8) {
    const __m128i lev16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lev + k));
    const __m256i idx =
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(lev16), 1);
    const __m512d tr =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), all, idx, table, 8);
    const __m512d ti = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), all,
                                                idx, table + 1, 8);
    const __m512d tlo = _mm512_permutex2var_pd(tr, ilo, ti);
    const __m512d thi = _mm512_permutex2var_pd(tr, ihi, ti);
    const __m512d vlo = _mm512_loadu_pd(amps + 2 * k);
    const __m512d vhi = _mm512_loadu_pd(amps + 2 * k + 8);
    _mm512_storeu_pd(amps + 2 * k, complex_mul_interleaved(vlo, tlo, sign));
    _mm512_storeu_pd(amps + 2 * k + 8,
                     complex_mul_interleaved(vhi, thi, sign));
  }
  impl::phase_run_scalar(amps, lev, table, k, hi);
}

void rx_pairs_avx512(double* lo, double* hi, std::uint64_t count, double c,
                     double s) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  const __m512d sign = negate_odd_lanes();
  std::uint64_t x = 0;
  for (; x + 4 <= count; x += 4) {
    __m512d nl;
    __m512d nh;
    rx_pair_step(_mm512_loadu_pd(lo + 2 * x), _mm512_loadu_pd(hi + 2 * x),
                 vc, vs, sign, &nl, &nh);
    _mm512_storeu_pd(lo + 2 * x, nl);
    _mm512_storeu_pd(hi + 2 * x, nh);
  }
  impl::rx_pairs_scalar(lo + 2 * x, hi + 2 * x, count - x, c, s);
}

namespace {

// In-place RX butterfly between two vectors of four complexes each.
inline void rx_vec(__m512d* a, __m512d* b, __m512d vc, __m512d vs,
                   __m512d sign) {
  rx_pair_step(*a, *b, vc, vs, sign, a, b);
}

}  // namespace

void rx_block_avx512(double* amps, int nq, double c, double s) {
  if (nq < 2) {
    // A 2^nq block is smaller than one 8-double register.
    impl::rx_block_scalar(amps, nq, c, s);
    return;
  }
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  const __m512d sign = negate_odd_lanes();
  const std::uint64_t bsize = std::uint64_t{1} << nq;
  if (nq < 5) {
    // Too small for the 32-complex register tile: qubits 0..1 in
    // register, the rest as full-vector pair runs.
    for (std::uint64_t k = 0; k < bsize; k += 4) {
      const __m512d v = _mm512_loadu_pd(amps + 2 * k);
      _mm512_storeu_pd(amps + 2 * k,
                       butterflies01_interleaved(v, vc, vs, sign));
    }
    for (int q = 2; q < nq; ++q) {
      const std::uint64_t bit = std::uint64_t{1} << q;
      for (std::uint64_t g0 = 0; g0 < bsize; g0 += bit << 1) {
        rx_pairs_avx512(amps + 2 * g0, amps + 2 * (g0 + bit), bit, c, s);
      }
    }
    return;
  }
  // The per-qubit sweeps are memory-pass bound (one block read+write per
  // qubit), so fuse several qubits per pass: each pair update reads only
  // its own two amplitudes, and fusion keeps qubits applied in the same
  // ascending order, so the bytes are unchanged — only the number of
  // trips through the block drops.
  //
  // Pass 1 — qubits 0..4 inside a 32-complex register tile. Qubits 0..1
  // are in-vector shuffles; pair distances 4/8/16 land on whole vectors
  // (v[i] pairs v[i^1], v[i^2], v[i^4]).
  for (std::uint64_t g = 0; g < bsize; g += 32) {
    double* p = amps + 2 * g;
    __m512d v[8];
    for (int i = 0; i < 8; ++i) v[i] = _mm512_loadu_pd(p + 8 * i);
    for (int i = 0; i < 8; ++i) {
      v[i] = butterflies01_interleaved(v[i], vc, vs, sign);
    }
    for (int i = 0; i < 8; i += 2) rx_vec(&v[i], &v[i + 1], vc, vs, sign);
    for (int i : {0, 1, 4, 5}) rx_vec(&v[i], &v[i + 2], vc, vs, sign);
    for (int i = 0; i < 4; ++i) rx_vec(&v[i], &v[i + 4], vc, vs, sign);
    for (int i = 0; i < 8; ++i) _mm512_storeu_pd(p + 8 * i, v[i]);
  }
  // Passes 2.. — remaining qubits three (or two, or one) at a time: an
  // 8-vector tile strided by the lowest fused qubit's pair distance
  // covers three butterfly levels in one read+write of the tile.
  int q = 5;
  while (q < nq) {
    const int nf = std::min(3, nq - q);
    const std::uint64_t bit = std::uint64_t{1} << q;  // complexes
    if (nf == 3) {
      for (std::uint64_t base = 0; base < bsize; base += bit << 3) {
        for (std::uint64_t t = 0; t < bit; t += 4) {
          double* p = amps + 2 * (base + t);
          __m512d v[8];
          for (int i = 0; i < 8; ++i) {
            v[i] = _mm512_loadu_pd(p + 2 * bit * static_cast<unsigned>(i));
          }
          for (int i = 0; i < 8; i += 2) {
            rx_vec(&v[i], &v[i + 1], vc, vs, sign);
          }
          for (int i : {0, 1, 4, 5}) rx_vec(&v[i], &v[i + 2], vc, vs, sign);
          for (int i = 0; i < 4; ++i) rx_vec(&v[i], &v[i + 4], vc, vs, sign);
          for (int i = 0; i < 8; ++i) {
            _mm512_storeu_pd(p + 2 * bit * static_cast<unsigned>(i), v[i]);
          }
        }
      }
      q += 3;
    } else if (nf == 2) {
      for (std::uint64_t base = 0; base < bsize; base += bit << 2) {
        for (std::uint64_t t = 0; t < bit; t += 4) {
          double* p = amps + 2 * (base + t);
          __m512d v[4];
          for (int i = 0; i < 4; ++i) {
            v[i] = _mm512_loadu_pd(p + 2 * bit * static_cast<unsigned>(i));
          }
          rx_vec(&v[0], &v[1], vc, vs, sign);
          rx_vec(&v[2], &v[3], vc, vs, sign);
          rx_vec(&v[0], &v[2], vc, vs, sign);
          rx_vec(&v[1], &v[3], vc, vs, sign);
          for (int i = 0; i < 4; ++i) {
            _mm512_storeu_pd(p + 2 * bit * static_cast<unsigned>(i), v[i]);
          }
        }
      }
      q += 2;
    } else {
      for (std::uint64_t g0 = 0; g0 < bsize; g0 += bit << 1) {
        rx_pairs_avx512(amps + 2 * g0, amps + 2 * (g0 + bit), bit, c, s);
      }
      q += 1;
    }
  }
}

void scaled_assign_avx512(double* amps, const double* src,
                          const double* scale, std::uint64_t lo,
                          std::uint64_t hi) {
  const __m512i ilo = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
  const __m512i ihi = _mm512_setr_epi64(4, 4, 5, 5, 6, 6, 7, 7);
  std::uint64_t k = lo;
  for (; k + 8 <= hi; k += 8) {
    const __m512d s8 = _mm512_loadu_pd(scale + k);
    const __m512d slo = permutexvar_pd(ilo, s8);
    const __m512d shi = permutexvar_pd(ihi, s8);
    _mm512_storeu_pd(amps + 2 * k,
                     _mm512_mul_pd(slo, _mm512_loadu_pd(src + 2 * k)));
    _mm512_storeu_pd(amps + 2 * k + 8,
                     _mm512_mul_pd(shi, _mm512_loadu_pd(src + 2 * k + 8)));
  }
  impl::scaled_assign_scalar(amps, src, scale, k, hi);
}

// --- dense row kernels ----------------------------------------------

void axpy_avx512(double* y, const double* x, double a, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(
        y + j, _mm512_add_pd(_mm512_loadu_pd(y + j),
                             _mm512_mul_pd(va, _mm512_loadu_pd(x + j))));
  }
  impl::axpy_scalar(y + j, x + j, a, n - j);
}

void axpy_avx512_fma(double* y, const double* x, double a, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(y + j, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + j),
                                            _mm512_loadu_pd(y + j)));
  }
  impl::axpy_scalar(y + j, x + j, a, n - j);
}

void vadd_avx512(double* y, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(
        y + j, _mm512_add_pd(_mm512_loadu_pd(y + j), _mm512_loadu_pd(x + j)));
  }
  impl::vadd_scalar(y + j, x + j, n - j);
}

void scale_store_avx512(double* y, const double* x, double a,
                        std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(y + j, _mm512_mul_pd(_mm512_loadu_pd(x + j), va));
  }
  impl::scale_store_scalar(y + j, x + j, a, n - j);
}

namespace {

// See the AVX2 twin: identical tiling to the scalar reference, k-tile
// accumulated in registers, ascending-k combine order per element.
template <typename Step>
inline void matmul_tiled_avx512(double* out, const double* a,
                                const double* b, std::size_t m,
                                std::size_t kdim, std::size_t n,
                                const Step& step) {
  for (std::size_t j0 = 0; j0 < n; j0 += impl::kMatmulTileJ) {
    const std::size_t j1 = std::min(n, j0 + impl::kMatmulTileJ);
    for (std::size_t k0 = 0; k0 < kdim; k0 += impl::kMatmulTileK) {
      const std::size_t k1 = std::min(kdim, k0 + impl::kMatmulTileK);
      for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a + i * kdim;
        double* orow = out + i * n;
        std::size_t j = j0;
        for (; j + 8 <= j1; j += 8) {
          __m512d acc = _mm512_loadu_pd(orow + j);
          for (std::size_t k = k0; k < k1; ++k) {
            acc = step(_mm512_set1_pd(arow[k]),
                       _mm512_loadu_pd(b + k * n + j), acc);
          }
          _mm512_storeu_pd(orow + j, acc);
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

void matmul_avx512(double* out, const double* a, const double* b,
                   std::size_t m, std::size_t k, std::size_t n) {
  matmul_tiled_avx512(out, a, b, m, k, n,
                      [](__m512d av, __m512d bv, __m512d acc) {
                        return _mm512_add_pd(acc, _mm512_mul_pd(av, bv));
                      });
}

void matmul_avx512_fma(double* out, const double* a, const double* b,
                       std::size_t m, std::size_t k, std::size_t n) {
  matmul_tiled_avx512(out, a, b, m, k, n,
                      [](__m512d av, __m512d bv, __m512d acc) {
                        return _mm512_fmadd_pd(av, bv, acc);
                      });
}

}  // namespace qgnn::simd::detail

#endif  // QGNN_SIMD_AVX512
