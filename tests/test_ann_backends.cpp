// Backend seam coverage: the registry (fallback, tier choice and tier
// name), the one ISA tier every vector subsystem runs, and the kernels.
// Every backend's gemm must be bit-identical to gemm_naive — and therefore
// to the reference backend — across tile remainders, odd shapes, and both
// serial and pool-parallel row partitioning (ann/backends/backend.hpp); so
// must ann::gemm_bt and ann::gemm_at, the backward pass, which run the same
// kernel on a transposed copy. The gemm tests also call every kernel table
// this host runs directly, so the AVX2 tier is covered where Backend::simd
// picks the AVX-512 one.
#include "ann/backends/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "ann/backends/kernels_detail.hpp"
#include "ann/matrix.hpp"
#include "circuit/lanes.hpp"
#include "circuit/lanes_kernel.hpp"
#include "circuit/tech.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/rng_walk_kernel.hpp"

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

/// The reference table and the simd table of every ISA tier this host
/// runs.
std::vector<Table> kernel_tables() {
  std::vector<Table> t{{"reference", &backends::reference_kernel_ops()}};
  for (const util::IsaTier tier : util::available_isa_tiers()) {
    if (const auto* ops = backends::detail::simd_kernel_ops(tier)) {
      t.push_back({ops->name.data(), ops});
    }
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

/// The tier util::isa_tier() must pick, found without it: the widest tier
/// whose Rng::walk file this build compiled (CMake gives the walk every
/// tier the compiler accepts) and whose instructions this CPU reports.
util::IsaTier expected_tier() {
  util::IsaTier tier = util::IsaTier::scalar;
#if defined(__x86_64__) || defined(__i386__)
  if (util::detail::walk_avx2() != nullptr && __builtin_cpu_supports("avx2")) {
    tier = util::IsaTier::avx2;
    if (util::detail::walk_avx512() != nullptr &&
        __builtin_cpu_supports("avx512f")) {
      tier = util::IsaTier::avx512;
    }
  }
#endif
  return tier;
}

/// The GEMM tier file's table for `tier`, or nullptr.
const backends::KernelOps* gemm_file_ops(util::IsaTier tier) {
  switch (tier) {
    case util::IsaTier::avx512:
      return backends::detail::simd_avx512_kernel_ops();
    case util::IsaTier::avx2:
      return backends::detail::simd_avx2_kernel_ops();
    case util::IsaTier::scalar:
      break;
  }
  return nullptr;
}

TEST(Backends, SimdPicksTheWidestUsableTier) {
  const backends::KernelOps* widest = gemm_file_ops(expected_tier());
  const backends::KernelOps& ref = backends::reference_kernel_ops();
  EXPECT_EQ(&backends::kernel_ops(Backend::simd), widest ? widest : &ref);
  EXPECT_EQ(backends::simd_compiled(), widest != nullptr);

  // The name travels with the table (HealthSummary::backend reports it).
  EXPECT_EQ(ref.name, "reference");
  for (const util::IsaTier tier : {util::IsaTier::avx2, util::IsaTier::avx512}) {
    if (const auto* ops = gemm_file_ops(tier)) {
      EXPECT_EQ(ops->name, util::isa_tier_name(tier));
    }
  }
}

TEST(Isa, EverySubsystemRunsTheOneTier) {
  const util::IsaTier tier = expected_tier();
  const auto name = std::string{util::isa_tier_name(tier)};
  EXPECT_EQ(util::isa_tier(), tier)
      << "picked " << util::isa_tier_name(util::isa_tier());
  std::vector<util::IsaTier> tiers{util::IsaTier::scalar};
  for (const util::IsaTier t : {util::IsaTier::avx2, util::IsaTier::avx512}) {
    if (t <= tier) tiers.push_back(t);
  }
  EXPECT_EQ(util::available_isa_tiers(), tiers);
  // The GEMM runs the tier's table, or the reference one where it has none.
  const backends::KernelOps* gemm = gemm_file_ops(tier);
  EXPECT_EQ(&backends::kernel_ops(Backend::simd),
            gemm ? gemm : &backends::reference_kernel_ops());
  EXPECT_EQ(backends::kernel_ops(Backend::simd).name,
            gemm ? name : "reference");
  // Rng::walk runs the tier's lanes.
  const std::size_t walk_lanes = tier == util::IsaTier::avx512 ? 8
                                 : tier == util::IsaTier::avx2 ? 4
                                                               : 1;
  EXPECT_EQ(util::walk_lanes(util::isa_tier()), walk_lanes) << name;
  // The Monte-Carlo lanes decide on the tier exactly when its tier file is
  // built (it needs libmvec); a lane call says so by its return value.
  const circuit::detail::LaneKernels* built =
      tier == util::IsaTier::avx512 ? circuit::detail::lanes_avx512()
      : tier == util::IsaTier::avx2 ? circuit::detail::lanes_avx2()
                                    : nullptr;
  EXPECT_EQ(circuit::detail::lane_kernels(util::isa_tier()), built) << name;
  EXPECT_EQ(circuit::read_currents_lanes(circuit::ptm22(), circuit::Sizing6T{},
                                         {}, 0.8, {}, {}),
            built != nullptr)
      << name;
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
  }
}

}  // namespace
}  // namespace hynapse::ann
