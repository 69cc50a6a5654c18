#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/var.hpp"
#include "quantum/statevector.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

// Equivalence suite for the SIMD kernel layer (DESIGN.md §13). Every
// bit-identical-tier kernel is asserted byte-identical between the
// generic scalar variant and each native variant the CPU supports; the
// opt-in fast tier is tolerance-bounded instead. The ctest registration
// additionally re-runs this whole binary with QGNN_SIMD pinned to
// generic / avx2 / avx512 so the env override path is exercised too.

namespace qgnn {
namespace {

namespace simd = qgnn::simd;

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kGeneric};
  if (simd::cpu_supports(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::cpu_supports(simd::Isa::kAvx512)) {
    isas.push_back(simd::Isa::kAvx512);
  }
  return isas;
}

/// Force an ISA for one scope, restoring the previous selection.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) : prev_(simd::active_isa()) {
    EXPECT_TRUE(simd::set_active_isa(isa));
  }
  ~IsaGuard() { simd::set_active_isa(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  simd::Isa prev_;
};

class FastTierGuard {
 public:
  explicit FastTierGuard(bool fast) : prev_(simd::kernel_config()) {
    simd::set_kernel_config({.fast_reductions = fast});
  }
  ~FastTierGuard() { simd::set_kernel_config(prev_); }
  FastTierGuard(const FastTierGuard&) = delete;
  FastTierGuard& operator=(const FastTierGuard&) = delete;

 private:
  simd::KernelConfig prev_;
};

/// Deterministic irrational-ish doubles; no two entries equal.
std::vector<double> test_values(std::size_t n, double phase) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(1.7 * static_cast<double>(i) + phase) +
           0.25 * std::cos(0.3 * static_cast<double>(i));
  }
  return v;
}

void expect_bytes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        simd::Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(),
                  got.size() * sizeof(double)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], want[i])
        << what << " diverges from generic at index " << i << " under "
        << simd::isa_name(isa);
  }
  FAIL() << what << ": sign-of-zero or NaN-payload difference under "
         << simd::isa_name(isa);
}

/// Run `kernel` (which mutates the buffers it is handed) once per
/// supported ISA on identical inputs and assert every output buffer is
/// byte-identical to the generic run.
void check_bit_identical(
    const char* what,
    const std::function<std::vector<std::vector<double>>()>& kernel) {
  std::vector<std::vector<double>> want;
  {
    IsaGuard guard(simd::Isa::kGeneric);
    want = kernel();
  }
  for (simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const auto got = kernel();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
      expect_bytes_equal(got[b], want[b], what, isa);
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch. The env-override test must run first: QGNN_SIMD is consumed
// when the first accessor resolves, before any set_active_isa below.

TEST(SimdDispatch, EnvOverrideRespected) {
  const char* env = std::getenv("QGNN_SIMD");
  if (env == nullptr) GTEST_SKIP() << "QGNN_SIMD not set for this run";
  simd::Isa requested = simd::best_supported_isa();
  if (std::strcmp(env, "generic") == 0) requested = simd::Isa::kGeneric;
  if (std::strcmp(env, "avx2") == 0) requested = simd::Isa::kAvx2;
  if (std::strcmp(env, "avx512") == 0) requested = simd::Isa::kAvx512;
  const simd::Isa expected = simd::cpu_supports(requested)
                                 ? requested
                                 : simd::best_supported_isa();
  EXPECT_EQ(simd::active_isa(), expected);
  EXPECT_STREQ(simd::active_isa_name(), simd::isa_name(expected));
}

TEST(SimdDispatch, ForcingAndNames) {
  const simd::Isa prev = simd::active_isa();
  EXPECT_TRUE(simd::set_active_isa(simd::Isa::kGeneric));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kGeneric);
  EXPECT_STREQ(simd::active_isa_name(), "generic");
  for (simd::Isa isa : supported_isas()) {
    EXPECT_TRUE(simd::set_active_isa(isa));
    EXPECT_EQ(simd::active_isa(), isa);
  }
  if (!simd::cpu_supports(simd::Isa::kAvx512)) {
    const simd::Isa before = simd::active_isa();
    EXPECT_FALSE(simd::set_active_isa(simd::Isa::kAvx512));
    EXPECT_EQ(simd::active_isa(), before);  // refused, unchanged
  }
  EXPECT_TRUE(simd::set_active_isa(prev));
}

TEST(SimdDispatch, DefaultConfigIsBitIdenticalTier) {
  EXPECT_FALSE(simd::kernel_config().fast_reductions);
}

// ---------------------------------------------------------------------------
// Bit-identical tier: every ported kernel, forced-ISA vs generic.

TEST(SimdKernels, PhaseTableBitIdentical) {
  const std::uint64_t dim = 1u << 10;
  std::vector<std::uint16_t> lev(dim);
  for (std::uint64_t k = 0; k < dim; ++k) {
    lev[k] = static_cast<std::uint16_t>(k % 17);
  }
  std::vector<double> table(2 * 17);
  for (int l = 0; l < 17; ++l) {
    table[2 * l] = std::cos(0.23 * l);
    table[2 * l + 1] = -std::sin(0.23 * l);
  }
  // Unaligned sub-range: the parallel sharding hands kernels arbitrary
  // [lo, hi) windows.
  check_bit_identical("phase_table", [&] {
    auto amps = test_values(2 * dim, 0.7);
    simd::phase_table()(amps.data(), lev.data(), table.data(), 3, dim - 5);
    return std::vector<std::vector<double>>{amps};
  });
}

TEST(SimdKernels, RxBlockBitIdenticalAcrossBlockSizes) {
  // 1..4 hit the small-block path, 5 the fused register-resident pass,
  // 6..13 every fused-chunk remainder (3, 2, and 1 qubits per pass).
  const double c = std::cos(0.29), s = std::sin(0.29);
  for (int nq = 1; nq <= 13; ++nq) {
    check_bit_identical("rx_block", [&] {
      auto amps = test_values(std::size_t{2} << nq, 1.3 + nq);
      simd::rx_block()(amps.data(), nq, c, s);
      return std::vector<std::vector<double>>{amps};
    });
  }
}

TEST(SimdKernels, RxPairsBitIdentical) {
  const std::uint64_t count = 517;  // odd: exercises the scalar tail
  const double c = std::cos(0.51), s = std::sin(0.51);
  check_bit_identical("rx_pairs", [&] {
    auto lo = test_values(2 * count, 0.2);
    auto hi = test_values(2 * count, 2.8);
    simd::rx_pairs()(lo.data(), hi.data(), count, c, s);
    return std::vector<std::vector<double>>{lo, hi};
  });
}

TEST(SimdKernels, ScaledAssignBitIdentical) {
  const std::uint64_t dim = (1u << 9) + 11;
  const auto src = test_values(2 * dim, 0.9);
  const auto scale = test_values(dim, 1.6);
  check_bit_identical("scaled_assign", [&] {
    std::vector<double> amps(2 * dim, -7.0);  // overwritten in [lo, hi)
    simd::scaled_assign()(amps.data(), src.data(), scale.data(), 1, dim - 3);
    return std::vector<std::vector<double>>{amps};
  });
}

TEST(SimdKernels, RowKernelsBitIdentical) {
  const std::size_t n = 1003;  // odd: scalar tails on every width
  const auto x = test_values(n, 0.5);
  check_bit_identical("axpy", [&] {
    auto y = test_values(n, 1.1);
    simd::axpy()(y.data(), x.data(), 0.8137, n);
    return std::vector<std::vector<double>>{y};
  });
  check_bit_identical("vadd", [&] {
    auto y = test_values(n, 2.4);
    simd::vadd()(y.data(), x.data(), n);
    return std::vector<std::vector<double>>{y};
  });
  check_bit_identical("scale_store", [&] {
    std::vector<double> y(n, 0.0);
    simd::scale_store()(y.data(), x.data(), -1.317, n);
    return std::vector<std::vector<double>>{y};
  });
}

TEST(SimdKernels, MatmulBitIdentical) {
  // Odd shapes exercise the j/k tail handling of the blocked kernel;
  // 64^3 exercises full tiles.
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{7, 33, 65}, {64, 64, 64}, {1, 300, 5}};
  for (const auto& sh : shapes) {
    const auto a = test_values(sh.m * sh.k, 0.3);
    const auto b = test_values(sh.k * sh.n, 1.8);
    check_bit_identical("matmul", [&] {
      std::vector<double> out(sh.m * sh.n, 0.0);
      simd::matmul()(out.data(), a.data(), b.data(), sh.m, sh.k, sh.n);
      return std::vector<std::vector<double>>{out};
    });
  }
}

// ---------------------------------------------------------------------------
// Fast tier: FMA-contracted reductions are tolerance-bounded, not
// bit-identical, and strictly opt-in.

TEST(SimdKernels, FastTierMatmulWithinTolerance) {
  const std::size_t m = 9, k = 137, n = 31;
  const auto a = test_values(m * k, 0.6);
  const auto b = test_values(k * n, 2.1);
  std::vector<double> want(m * n, 0.0);
  simd::matmul()(want.data(), a.data(), b.data(), m, k, n);

  FastTierGuard fast(true);
  for (simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    std::vector<double> got(m * n, 0.0);
    simd::matmul()(got.data(), a.data(), b.data(), m, k, n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-11 * static_cast<double>(k))
          << "fast matmul at " << i << " under " << simd::isa_name(isa);
    }
  }
}

TEST(SimdKernels, FastTierAxpyWithinTolerance) {
  const std::size_t n = 777;
  const auto x = test_values(n, 0.8);
  auto want = test_values(n, 1.5);
  simd::axpy()(want.data(), x.data(), 0.433, n);

  FastTierGuard fast(true);
  for (simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    auto got = test_values(n, 1.5);
    simd::axpy()(got.data(), x.data(), 0.433, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12)
          << "fast axpy at " << i << " under " << simd::isa_name(isa);
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: a statevector driven through the ported call sites stays
// byte-identical at every ISA. n = 13 exceeds the 2^12 rx block size so
// both the block kernel and the strided cross-block rx_pairs path run.

TEST(SimdEndToEnd, StateVectorLayersBitIdentical) {
  const int n = 13;
  const std::uint64_t dim = std::uint64_t{1} << n;
  std::vector<std::uint16_t> index(dim);
  for (std::uint64_t k = 0; k < dim; ++k) {
    index[k] = static_cast<std::uint16_t>((k * 31 + 7) % 23);
  }
  std::vector<Amplitude> table(23);
  for (int l = 0; l < 23; ++l) {
    table[l] = std::polar(1.0, -0.41 * static_cast<double>(l));
  }
  std::vector<double> scale(dim);
  for (std::uint64_t k = 0; k < dim; ++k) {
    scale[k] = std::cos(0.05 * static_cast<double>(k));
  }

  auto run = [&] {
    StateVector state = StateVector::plus_state(n);
    state.apply_phase_table(index, table);
    state.apply_rx_layer(0.713);
    StateVector lambda(n);
    lambda.assign_scaled(state, scale);
    std::vector<double> bytes;
    bytes.reserve(4 * dim);
    for (const Amplitude& a : state.amplitudes()) {
      bytes.push_back(a.real());
      bytes.push_back(a.imag());
    }
    for (const Amplitude& a : lambda.amplitudes()) {
      bytes.push_back(a.real());
      bytes.push_back(a.imag());
    }
    return std::vector<std::vector<double>>{bytes};
  };
  check_bit_identical("statevector layers", run);
}

// ---------------------------------------------------------------------------
// The vectorized fused autograd ops keep correct gradients at every
// ISA: reverse-mode vs central finite differences.

using BuildFn = std::function<ag::Var(const std::vector<ag::Var>&)>;

void check_gradients_at_active_isa(const std::vector<Matrix>& inputs,
                                   const BuildFn& build) {
  const double h = 1e-6, tol = 1e-5;
  std::vector<ag::Var> leaves;
  leaves.reserve(inputs.size());
  for (const Matrix& m : inputs) leaves.emplace_back(m, true);
  ag::Var out = build(leaves);
  ASSERT_EQ(out.rows(), 1u);
  ASSERT_EQ(out.cols(), 1u);
  out.backward();

  auto eval = [&build](const std::vector<Matrix>& values) {
    std::vector<ag::Var> ls;
    ls.reserve(values.size());
    for (const Matrix& m : values) ls.emplace_back(m, false);
    return build(ls).value()(0, 0);
  };
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (std::size_t i = 0; i < inputs[k].rows(); ++i) {
      for (std::size_t j = 0; j < inputs[k].cols(); ++j) {
        std::vector<Matrix> probe = inputs;
        probe[k](i, j) = inputs[k](i, j) + h;
        const double fp = eval(probe);
        probe[k](i, j) = inputs[k](i, j) - h;
        const double fm = eval(probe);
        EXPECT_NEAR(leaves[k].grad()(i, j), (fp - fm) / (2.0 * h), tol)
            << "input " << k << " entry (" << i << "," << j << ") under "
            << simd::active_isa_name();
      }
    }
  }
}

Matrix test_matrix(std::size_t rows, std::size_t cols, double scale = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) =
          scale * std::sin(1.7 * static_cast<double>(i * cols + j) + 0.3);
    }
  }
  return m;
}

ag::Var scalarize(const ag::Var& v) {
  Matrix w(v.rows(), v.cols());
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      w(i, j) = 0.3 + 0.7 * static_cast<double>(i) -
                0.4 * static_cast<double>(j);
    }
  }
  return ag::sum_all(ag::mul(v, ag::Var(w, false)));
}

TEST(SimdAutograd, FusedOpGradientsAtEveryIsa) {
  const std::vector<int> src{0, 2, 1, 2, 0, 3};
  const std::vector<int> dst{1, 0, 3, 3, 2, 1};
  const std::vector<double> coeff{0.5, -1.2, 0.75, 2.0, -0.3, 1.1};
  const std::vector<double> row_coeffs{0.9, -0.4, 1.7};
  for (simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    check_gradients_at_active_isa(
        {test_matrix(3, 4), test_matrix(4, 2), test_matrix(1, 2, 0.5)},
        [](const std::vector<ag::Var>& in) {
          return scalarize(ag::affine(in[0], in[1], in[2]));
        });
    check_gradients_at_active_isa(
        {test_matrix(3, 5), test_matrix(3, 5, 0.7)},
        [&](const std::vector<ag::Var>& in) {
          return scalarize(ag::add_scaled_rows(in[0], in[1], row_coeffs));
        });
    check_gradients_at_active_isa(
        {test_matrix(4, 3)}, [&](const std::vector<ag::Var>& in) {
          return scalarize(
              ag::scatter_add_gathered_rows(in[0], src, dst, coeff, 4));
        });
    check_gradients_at_active_isa(
        {test_matrix(4, 3)}, [&](const std::vector<ag::Var>& in) {
          return scalarize(
              ag::scatter_add_gathered_rows(in[0], src, dst, {}, 4));
        });
  }
}

// Inference forwards (matmul included) are byte-identical across ISAs.
TEST(SimdAutograd, ForwardValuesBitIdentical) {
  const Matrix a = test_matrix(17, 33);
  const Matrix w = test_matrix(33, 9);
  const Matrix bias = test_matrix(1, 9, 0.2);
  check_bit_identical("affine forward", [&] {
    ag::NoGradGuard no_grad;
    const ag::Var out =
        ag::affine(ag::Var(a, false), ag::Var(w, false), ag::Var(bias, false));
    const Matrix& v = out.value();
    return std::vector<std::vector<double>>{
        std::vector<double>(v.data(), v.data() + v.rows() * v.cols())};
  });
}

}  // namespace
}  // namespace qgnn
