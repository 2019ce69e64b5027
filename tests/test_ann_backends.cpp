// Backend seam coverage: the registry (fallback, tier choice and tier
// name) and the kernels. Every backend's gemm must be
// bit-identical to gemm_naive — and therefore to the reference backend —
// across tile remainders, odd shapes, and both serial and pool-parallel row
// partitioning (ann/backends/backend.hpp); so must the portable gemm_bt and
// gemm_at kernels of the backward pass. The gemm tests also call every
// kernel table this host runs directly, so the AVX2 tier is covered where
// Backend::simd picks the AVX-512 one.
#include "ann/backends/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "ann/backends/kernels_detail.hpp"
#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace hynapse::ann {
namespace {

using backends::Backend;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m{r, c};
  util::Rng rng{seed};
  for (float& x : m.data()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

Matrix transpose(const Matrix& m) {
  Matrix t{m.cols(), m.rows()};
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) t.at(j, i) = m.at(i, j);
  return t;
}

struct Shape {
  std::size_t m, k, n;
};

// Exercises the tile interiors (4x16 on AVX2, 4x32 on AVX-512), the row
// remainder (m % 4), column tails on both halves of the 32-wide tile
// (n = 33, 47), sub-tile shapes, k smaller than the unroll, a 64+-row shape
// that crosses the parallel-dispatch threshold, and the Table-I layer
// shapes at batch 48, whose column tails are 500 % 32, 200 % 32, 100 % 32
// and 10.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s{
      {1, 1, 1},      {3, 5, 2},      {4, 16, 16},   {5, 17, 31},
      {8, 1, 16},     {7, 2, 15},     {16, 33, 17},  {64, 32, 48},
      {70, 11, 19},   {13, 48, 64},   {9, 21, 33},   {6, 13, 47},
      {48, 1000, 500}, {48, 500, 200}, {48, 200, 100}, {48, 100, 10},
  };
  return s;
}

/// One kernel table this host runs.
struct Table {
  const char* name;
  const backends::KernelOps* ops;
};

/// The reference table and every simd tier this build has and this CPU
/// runs.
std::vector<Table> kernel_tables() {
  std::vector<Table> t{{"reference", &backends::reference_kernel_ops()}};
  if (const auto* ops = backends::detail::simd_avx2_kernel_ops()) {
    t.push_back({"simd.avx2", ops});
  }
  if (const auto* ops = backends::detail::simd512_kernel_ops()) {
    t.push_back({"simd.avx512", ops});
  }
  return t;
}

/// Rows at which the direct kernel calls split m, as a row-partitioned
/// call would (0 = one call over every row).
std::vector<std::size_t> row_splits(std::size_t m) {
  return {0, m / 2, std::min<std::size_t>(m, 3)};
}

TEST(Backends, SimdFallsBackToReferenceWhenNotCompiled) {
  const backends::KernelOps& ref = backends::reference_kernel_ops();
  const backends::KernelOps& simd = backends::kernel_ops(Backend::simd);
  EXPECT_EQ(&backends::kernel_ops(Backend::reference), &ref);
  if (backends::simd_compiled()) {
    EXPECT_NE(&simd, &ref);
  } else {
    EXPECT_EQ(&simd, &ref);
  }
}

TEST(Backends, SimdPicksTheWidestUsableTier) {
  const backends::KernelOps* widest = backends::detail::simd512_kernel_ops();
  if (!widest) widest = backends::detail::simd_avx2_kernel_ops();
  const backends::KernelOps& ref = backends::reference_kernel_ops();
  EXPECT_EQ(&backends::kernel_ops(Backend::simd), widest ? widest : &ref);
  EXPECT_EQ(backends::simd_compiled(), widest != nullptr);

  // The name travels with the table (HealthSummary::backend reports it).
  EXPECT_EQ(ref.name, "reference");
  const std::string_view expected =
      backends::detail::simd512_kernel_ops()       ? "avx512"
      : backends::detail::simd_avx2_kernel_ops() ? "avx2"
                                                   : "reference";
  EXPECT_EQ(backends::kernel_ops(Backend::simd).name, expected);
}

TEST(Backends, GemmMatchesNaiveBitwiseAcrossBackendsAndShapes) {
  for (const Shape& s : shapes()) {
    const Matrix a = random_matrix(s.m, s.k, 101 + s.m);
    const Matrix b = random_matrix(s.k, s.n, 202 + s.n);
    Matrix naive{s.m, s.n};
    gemm_naive(a, b, naive);
    for (const Backend backend : backends::available_backends()) {
      for (const bool parallel : {false, true}) {
        Matrix c{s.m, s.n};
        gemm(a, b, c, parallel, backend);
        EXPECT_EQ(c, naive)
            << "backend=" << backends::backend_name(backend) << " m=" << s.m
            << " k=" << s.k << " n=" << s.n << " parallel=" << parallel;
      }
    }
    for (const Table& t : kernel_tables()) {
      for (const std::size_t r : row_splits(s.m)) {
        Matrix c{s.m, s.n};
        t.ops->gemm(a.row(0), b.row(0), c.row(0), r, s.k, s.n);
        t.ops->gemm(a.row(0) + r * s.k, b.row(0), c.row(0) + r * s.n,
                    s.m - r, s.k, s.n);
        EXPECT_EQ(c, naive) << "table=" << t.name << " m=" << s.m
                            << " k=" << s.k << " n=" << s.n << " split=" << r;
      }
    }
  }
}

TEST(Backends, GemmBlockMatchesNaiveBitwiseOnRowWindows) {
  const Matrix a = random_matrix(21, 17, 31);
  const Matrix b = random_matrix(17, 29, 32);
  Matrix naive{21, 29};
  gemm_naive(a, b, naive);
  // Row windows of every alignment against the 4-row tile, through the
  // public entry point of each backend and each kernel table directly.
  const auto check = [&](const char* name, auto run) {
    for (const std::size_t r0 : {std::size_t{0}, std::size_t{3}}) {
      for (const std::size_t m : {std::size_t{1}, std::size_t{4},
                                  std::size_t{7}, std::size_t{18} - r0}) {
        Matrix c{m, 29};
        run(a.row(r0), m, c);
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(0, std::memcmp(c.row(i), naive.row(r0 + i),
                                   29 * sizeof(float)))
              << name << " r0=" << r0 << " m=" << m << " row=" << i;
        }
      }
    }
  };
  for (const Backend backend : backends::available_backends()) {
    check(backends::backend_name(backend).data(),
          [&](const float* rows, std::size_t m, Matrix& c) {
            gemm_block(rows, m, b, c, /*parallel=*/false, backend);
          });
  }
  for (const Table& t : kernel_tables()) {
    check(t.name, [&](const float* rows, std::size_t m, Matrix& c) {
      t.ops->gemm(rows, b.row(0), c.row(0), m, 17, 29);
    });
  }
}

TEST(Backends, GemmBtMatchesNaiveBitwiseAcrossShapesAndRowSplits) {
  for (const Shape& s : shapes()) {
    const Matrix a = random_matrix(s.m, s.k, 303 + s.m);
    const Matrix b = random_matrix(s.k, s.n, 404 + s.n);
    const Matrix bt = transpose(b);
    Matrix naive{s.m, s.n};
    gemm_naive(a, b, naive);
    for (const bool parallel : {false, true}) {
      Matrix c{s.m, s.n};
      gemm_bt(a, bt, c, parallel);
      EXPECT_EQ(c, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n
                          << " parallel=" << parallel;
    }
    for (const std::size_t r : row_splits(s.m)) {
      Matrix c{s.m, s.n};
      backends::detail::gemm_bt_kernel(a.row(0), bt.row(0), c.row(0), r, s.k,
                                       s.n);
      backends::detail::gemm_bt_kernel(a.row(0) + r * s.k, bt.row(0),
                                       c.row(0) + r * s.n, s.m - r, s.k, s.n);
      EXPECT_EQ(c, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n
                          << " split=" << r;
    }
  }
}

TEST(Backends, GemmAtMatchesNaiveBitwiseAcrossShapesAndRowSplits) {
  for (const Shape& s : shapes()) {
    const Matrix a = random_matrix(s.m, s.k, 505 + s.m);
    const Matrix at = transpose(a);
    const Matrix b = random_matrix(s.m, s.n, 606 + s.n);
    // c = a^T * b is (k x n); a^T has s.k rows of s.m inner elements.
    Matrix naive{s.k, s.n};
    gemm_naive(at, b, naive);
    for (const bool parallel : {false, true}) {
      Matrix c{s.k, s.n};
      gemm_at(a, b, c, parallel);
      EXPECT_EQ(c, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n
                          << " parallel=" << parallel;
    }
    // The kernel reads a (m x k) as the k x mt operand at, mt = s.k.
    for (const std::size_t r : row_splits(s.k)) {
      Matrix c{s.k, s.n};
      backends::detail::gemm_at_kernel(a.row(0), b.row(0), c.row(0), 0, r,
                                       s.k, s.m, s.n);
      backends::detail::gemm_at_kernel(a.row(0), b.row(0), c.row(0), r, s.k,
                                       s.k, s.m, s.n);
      EXPECT_EQ(c, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n
                          << " split=" << r;
    }
  }
}

}  // namespace
}  // namespace hynapse::ann
