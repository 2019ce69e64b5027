#include "ann/matrix.hpp"

#include <stdexcept>

#include "ann/backends/backend.hpp"
#include "ann/backends/kernels_detail.hpp"
#include "util/parallel.hpp"

namespace hynapse::ann {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_{rows}, cols_{cols}, data_(rows * cols, 0.0f) {}

void Matrix::fill(float value) {
  const std::span<float> logical = data();
  std::fill(logical.begin(), logical.end(), value);
}

void Matrix::reserve(std::size_t rows, std::size_t cols) {
  data_.reserve(rows * cols);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // Grow-only: shrinking just narrows the logical extent, so alternating
  // layer widths in a hot loop never re-zero (or reallocate) the backing
  // store once it has reached its high-water mark.
  if (data_.size() < rows * cols) data_.resize(rows * cols);
}

namespace {

void check_gemm(std::size_t ar, std::size_t ac, std::size_t br,
                std::size_t bc, std::size_t cr, std::size_t cc) {
  if (ac != br || cr != ar || cc != bc)
    throw std::invalid_argument{"gemm: dimension mismatch"};
}

// The kernel bodies themselves live in ann/backends/; this TU owns the shape
// checks and the parallel row partitioning, both of which are
// backend-independent (every gemm kernel is row-partitionable bit for bit).
void gemm_dispatch(const float* a, const Matrix& b, Matrix& c, std::size_t m,
                   bool parallel, backends::Backend backend) {
  const backends::KernelOps& ops = backends::kernel_ops(backend);
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  const auto body = [&](std::size_t r0, std::size_t r1) {
    ops.gemm(a + r0 * k, b.row(0), c.row(r0), r1 - r0, k, n);
  };
  if (parallel && m >= 64) {
    util::parallel_for_chunks(m, body);
  } else {
    body(0, m);
  }
}

// The backward pass's transposed operands go through the one gemm kernel as
// an explicit transpose: every kernel accumulates each element over p in
// ascending order from 0, one multiply and one add per step, as a
// transposed-operand kernel would, so the copy moves no bit.
Matrix transposed(const Matrix& x) {
  Matrix t{x.cols(), x.rows()};
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) t.at(c, r) = x.at(r, c);
  }
  return t;
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, bool parallel,
          backends::Backend backend) {
  check_gemm(a.rows(), a.cols(), b.rows(), b.cols(), c.rows(), c.cols());
  gemm_dispatch(a.row(0), b, c, a.rows(), parallel, backend);
}

void gemm_block(const float* a_rows, std::size_t m, const Matrix& b,
                Matrix& c, bool parallel, backends::Backend backend) {
  if (c.rows() != m || c.cols() != b.cols())
    throw std::invalid_argument{"gemm_block: dimension mismatch"};
  gemm_dispatch(a_rows, b, c, m, parallel, backend);
}

void gemm_bt(const Matrix& a, const Matrix& bt, Matrix& c, bool parallel) {
  if (a.cols() != bt.cols() || c.rows() != a.rows() || c.cols() != bt.rows())
    throw std::invalid_argument{"gemm_bt: dimension mismatch"};
  gemm_dispatch(a.row(0), transposed(bt), c, a.rows(), parallel,
                backends::Backend::simd);
}

void gemm_at(const Matrix& at, const Matrix& b, Matrix& c, bool parallel) {
  if (at.rows() != b.rows() || c.rows() != at.cols() || c.cols() != b.cols())
    throw std::invalid_argument{"gemm_at: dimension mismatch"};
  const Matrix a = transposed(at);
  gemm_dispatch(a.row(0), b, c, a.rows(), parallel, backends::Backend::simd);
}

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c) {
  check_gemm(a.rows(), a.cols(), b.rows(), b.cols(), c.rows(), c.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p)
        acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  }
}

void add_row_bias(Matrix& y, std::span<const float> bias) {
  if (bias.size() != y.cols())
    throw std::invalid_argument{"add_row_bias: size mismatch"};
  const float* HYNAPSE_RESTRICT bs = bias.data();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* HYNAPSE_RESTRICT yi = y.row(i);
    for (std::size_t j = 0; j < y.cols(); ++j) yi[j] += bs[j];
  }
}

}  // namespace hynapse::ann
