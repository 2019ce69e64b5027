// Dense row-major float matrix with the handful of BLAS-like kernels the MLP
// needs. Single precision is the right trade for the ANN level (weights are
// ultimately quantized to 8 bits anyway); the circuit level uses doubles.
//
// Kernel determinism: every GEMM variant (including gemm_naive and the raw
// gemm_block entry point) accumulates each output element c[i][j] over the
// inner dimension in ascending p order, so all of them — and any row
// partitioning across threads or mini-batches — produce bit-identical
// results. Blocking/tiling only reorders which *elements* are computed when,
// never the addition order within an element (docs/performance.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "ann/backends/backend.hpp"

namespace hynapse::ann {

class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float* row(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const float* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] std::span<float> data() noexcept {
    return {data_.data(), size()};
  }
  [[nodiscard]] std::span<const float> data() const noexcept {
    return {data_.data(), size()};
  }

  void fill(float value);

  /// Preallocates storage for a rows x cols shape without changing the
  /// current dimensions (workspace warm-up; see reshape()).
  void reserve(std::size_t rows, std::size_t cols);

  /// Changes the dimensions in place, reusing the existing storage. The
  /// backing vector only ever grows (shrinking just narrows the logical
  /// extent), so a warmed-up scratch matrix can be reshaped inside a hot
  /// loop with no allocation and no re-zeroing of grown elements. Element
  /// values are unspecified after a reshape (kernels writing the full
  /// output don't pay for zeroing).
  void reshape(std::size_t rows, std::size_t cols);

  friend bool operator==(const Matrix& a, const Matrix& b) noexcept {
    // Compare the logical extent only: grow-only scratch storage may hold a
    // stale tail beyond rows*cols.
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::equal(a.data().begin(), a.data().end(), b.data().begin());
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// c = a * b. Dimensions must agree (throws std::invalid_argument).
/// Dispatches to the selected backend's register-tiled i-k-j kernel, by
/// default the widest simd tier (backends::kernel_ops; see
/// ann/backends/backend.hpp for the determinism contract — every backend is
/// bit-identical to gemm_naive); optionally multithreaded over row blocks.
void gemm(const Matrix& a, const Matrix& b, Matrix& c, bool parallel = true,
          backends::Backend backend = backends::Backend::simd);

/// c = a_rows * b where `a_rows` points at `m` contiguous row-major rows of
/// width b.rows(). Same kernel as gemm(); the workspace forward path feeds
/// mini-batches straight out of the caller's input matrix through this
/// overload, so no staging copy is needed. c must already be m x b.cols().
void gemm_block(const float* a_rows, std::size_t m, const Matrix& b, Matrix& c,
                bool parallel = false,
                backends::Backend backend = backends::Backend::simd);

/// c = a * b^T (used by the backward pass). Copies b_transposed into b and
/// runs gemm()'s kernel on the simd backend, so the result is bit-identical
/// to gemm_naive(a, b).
void gemm_bt(const Matrix& a, const Matrix& b_transposed, Matrix& c,
             bool parallel = true);

/// c = a^T * b (used for weight gradients). Copies a_transposed into a and
/// runs gemm()'s kernel, like gemm_bt.
void gemm_at(const Matrix& a_transposed, const Matrix& b, Matrix& c,
             bool parallel = true);

/// Reference implementation for testing the optimized kernels.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c);

/// y += row-broadcast bias (bias has size y.cols()).
void add_row_bias(Matrix& y, std::span<const float> bias);

}  // namespace hynapse::ann
