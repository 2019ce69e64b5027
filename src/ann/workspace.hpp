// Preallocated scratch for repeated forward passes (the chip-evaluation hot
// path). A forward pass only ever needs the current and the next layer's
// activations, so the workspace holds two ping-pong matrices sized for one
// mini-batch x the widest layer; Mlp::accuracy(input, labels, workspace)
// walks the test set in mini-batches through them. After the first bind()
// the per-batch loop performs no heap allocation (Matrix::reshape reuses
// capacity), and because every kernel is row-independent the mini-batched
// result is bit-identical to the whole-set overload for any batch size.
//
// The workspace carries the kernel backend selection (ann/backends): the
// backend changes which KernelOps table the forward GEMMs dispatch to, never
// the results (see the determinism contract in backend.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "ann/matrix.hpp"

namespace hynapse::ann {

class Mlp;

/// Grow-only panels for recomputing the dirty columns J of a reused first
/// layer (ann::FirstLayerReuse): W0[:, J] and b0[J] gathered with the
/// chip's deltas in place, and the m x |J| block the backend's own GEMM
/// writes before it is scattered into the layer-0 output.
struct ColumnPatch {
  Matrix weights;
  std::vector<float> bias;
  Matrix out;

  /// Makes room for `cols` dirty columns of a fan_in-wide layer over
  /// `rows`-row mini-batches, so the patch itself never allocates.
  void reserve(std::size_t fan_in, std::size_t rows, std::size_t cols);

  /// Panel width for `cols` dirty columns: rounded up to a multiple of
  /// every backend's GEMM column tile, so the patch runs in full tiles.
  [[nodiscard]] static constexpr std::size_t padded(std::size_t cols) {
    return (cols + 31) / 32 * 32;
  }
};

class EvalWorkspace {
 public:
  /// Mini-batch row count: 256 rows x 1000 columns (the widest Table-I
  /// layer) is a 1 MB activation panel — big enough to amortize streaming
  /// the weight matrix, small enough to stay cache-resident.
  static constexpr std::size_t kDefaultBatchRows = 256;

  EvalWorkspace() = default;
  explicit EvalWorkspace(std::size_t batch_rows)
      : batch_rows_{batch_rows == 0 ? kDefaultBatchRows : batch_rows} {}

  [[nodiscard]] std::size_t batch_rows() const noexcept { return batch_rows_; }

  [[nodiscard]] backends::Backend backend() const noexcept { return backend_; }
  void set_backend(backends::Backend backend) noexcept { backend_ = backend; }

  /// Grow-only: ensures both activation buffers can hold a batch_rows x
  /// widest-layer block of `net`. Called by the accuracy overload itself;
  /// explicit warm-up is only needed to move the allocation out of a timed
  /// region.
  void bind(const Mlp& net);

 private:
  friend class Mlp;

  std::size_t batch_rows_ = kDefaultBatchRows;
  backends::Backend backend_ = backends::Backend::simd;
  Matrix front_;
  Matrix back_;
  ColumnPatch patch_;
};

}  // namespace hynapse::ann
