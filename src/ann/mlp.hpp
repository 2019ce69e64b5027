// Feedforward multilayer perceptron (Fig. 1 of the paper): fully connected
// layers, sigmoid hidden activations, softmax output. The paper's benchmark
// instance (Table I) is 784-1000-500-200-100-10: 6 layers, 2594 neurons,
// 1,406,810 synapses counting biases.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ann/matrix.hpp"

namespace hynapse::ann {

class EvalWorkspace;
struct ColumnPatch;

/// Hidden-layer nonlinearity. The paper's text shows sigmoid neurons
/// (Fig. 1); its simulator, the DeepLearnToolbox [22], defaults to LeCun's
/// scaled tanh (1.7159*tanh(2x/3)), which is also what trains the deep
/// Table-I network reliably. ReLU is provided for completeness.
enum class Activation : std::uint8_t {
  sigmoid,
  tanh_lecun,
  relu,
};

/// Reuse of a clean first layer across chips (docs/performance.md, "Clean
/// first-layer reuse"). `clean` holds the activated layer-0 output of the
/// fault-free network for every input row (Mlp::first_layer); `columns`
/// lists the layer-0 outputs whose weights or bias differ from the clean
/// network's. Every other column of a chip's layer-0 output is the clean
/// column bit for bit, so only `columns` are recomputed. A null `clean`
/// means no reuse: the full layer-0 GEMM runs.
struct FirstLayerReuse {
  const Matrix* clean = nullptr;
  std::span<const std::uint32_t> columns;
};

/// Weight matrices are stored fan_in x fan_out so a batch forward pass is
/// activations(row-major batch) * W.
class Mlp {
 public:
  /// Builds a network with Xavier-uniform initial weights. `layer_sizes`
  /// includes the input layer, e.g. {784, 1000, 500, 200, 100, 10}.
  Mlp(std::vector<std::size_t> layer_sizes, std::uint64_t seed,
      Activation hidden_activation = Activation::sigmoid);

  [[nodiscard]] Activation hidden_activation() const noexcept {
    return activation_;
  }
  void set_hidden_activation(Activation a) noexcept { activation_ = a; }

  [[nodiscard]] const std::vector<std::size_t>& layer_sizes() const noexcept {
    return sizes_;
  }
  /// Number of synaptic connection layers (= layer_sizes().size() - 1).
  [[nodiscard]] std::size_t num_weight_layers() const noexcept {
    return weights_.size();
  }
  /// Total neuron count including the input layer (Table I convention).
  [[nodiscard]] std::size_t neuron_count() const noexcept;
  /// Total synapse count: weights + biases (Table I convention).
  [[nodiscard]] std::size_t synapse_count() const noexcept;

  [[nodiscard]] Matrix& weight(std::size_t layer) { return weights_.at(layer); }
  [[nodiscard]] const Matrix& weight(std::size_t layer) const {
    return weights_.at(layer);
  }
  [[nodiscard]] std::vector<float>& bias(std::size_t layer) {
    return biases_.at(layer);
  }
  [[nodiscard]] const std::vector<float>& bias(std::size_t layer) const {
    return biases_.at(layer);
  }

  /// Batch forward pass: input (batch x layer_sizes[0]) -> output class
  /// probabilities (batch x layer_sizes.back()).
  [[nodiscard]] Matrix forward(const Matrix& input) const;

  /// Forward pass that also returns every layer's activations (used by the
  /// trainer); activations[0] is the input, activations.back() the softmax
  /// output.
  void forward_full(const Matrix& input,
                    std::vector<Matrix>& activations) const;

  /// Argmax class predictions for a batch.
  [[nodiscard]] std::vector<std::uint8_t> predict(const Matrix& input) const;

  /// Fraction of rows whose argmax matches `labels`.
  [[nodiscard]] double accuracy(const Matrix& input,
                                std::span<const std::uint8_t> labels) const;

  /// Allocation-free accuracy for the chip-evaluation hot path: walks the
  /// test set in mini-batches through the workspace's preallocated
  /// ping-pong activation buffers instead of materializing whole-set
  /// activations. Bit-identical to the overload above for any batch size
  /// (every kernel is row-independent; see docs/performance.md). With a
  /// non-null `reuse.clean`, layer 0 copies the clean rows and recomputes
  /// only `reuse.columns` — same result as the full layer-0 GEMM.
  [[nodiscard]] double accuracy(const Matrix& input,
                                std::span<const std::uint8_t> labels,
                                EvalWorkspace& workspace,
                                const FirstLayerReuse& reuse = {}) const;

  /// Activated layer-0 output of every row of `input` into `out` (rows x
  /// layer_sizes()[1]): the cache FirstLayerReuse::clean points at. Throws
  /// std::invalid_argument for a single-layer net, whose only layer ends in
  /// a row-wise softmax that no column patch can reproduce.
  void first_layer(const Matrix& input, Matrix& out,
                   backends::Backend backend) const;

 private:
  /// Throws std::invalid_argument unless `reuse` fits this net and `input`.
  void check_reuse(const Matrix& input, const FirstLayerReuse& reuse) const;
  /// The layer-0 step of accuracy() and first_layer(): the activated layer-0
  /// output of input rows [r0, r0 + m) into `out` (already m x fan_out),
  /// by the full GEMM or, under `reuse`, by copying the clean rows and
  /// recomputing the dirty columns through `patch`.
  void first_layer_block(const Matrix& input, std::size_t r0, std::size_t m,
                         const FirstLayerReuse& reuse, ColumnPatch& patch,
                         Matrix& out, backends::Backend backend) const;

  std::vector<std::size_t> sizes_;
  Activation activation_ = Activation::sigmoid;
  std::vector<Matrix> weights_;             // [layer]: fan_in x fan_out
  std::vector<std::vector<float>> biases_;  // [layer]: fan_out
};

/// In-place row-wise sigmoid.
void sigmoid_inplace(Matrix& m);
/// In-place LeCun scaled tanh: 1.7159 * tanh(2x/3).
void tanh_lecun_inplace(Matrix& m);
/// In-place rectifier.
void relu_inplace(Matrix& m);
/// Applies the chosen hidden activation in place.
void activate_inplace(Matrix& m, Activation a);
/// Derivative of the activation expressed through the *activation value* a
/// (as backprop needs): sigmoid -> a(1-a); tanh_lecun -> 1.14393(1-(a/1.7159)^2);
/// relu -> a > 0.
[[nodiscard]] float activation_derivative(float a, Activation act) noexcept;
/// In-place row-wise softmax (numerically stabilized).
void softmax_rows_inplace(Matrix& m);

}  // namespace hynapse::ann
