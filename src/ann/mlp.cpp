#include "ann/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ann/workspace.hpp"
#include "util/rng.hpp"

namespace hynapse::ann {

Mlp::Mlp(std::vector<std::size_t> layer_sizes, std::uint64_t seed,
         Activation hidden_activation)
    : sizes_{std::move(layer_sizes)}, activation_{hidden_activation} {
  if (sizes_.size() < 2)
    throw std::invalid_argument{"Mlp: need at least input and output layers"};
  for (std::size_t s : sizes_)
    if (s == 0) throw std::invalid_argument{"Mlp: zero-width layer"};

  util::Rng rng{seed};
  weights_.reserve(sizes_.size() - 1);
  biases_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const std::size_t fan_in = sizes_[l];
    const std::size_t fan_out = sizes_[l + 1];
    Matrix w{fan_in, fan_out};
    const double bound =
        std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (float& x : w.data())
      x = static_cast<float>(rng.uniform(-bound, bound));
    weights_.push_back(std::move(w));
    biases_.emplace_back(fan_out, 0.0f);
  }
}

std::size_t Mlp::neuron_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t s : sizes_) n += s;
  return n;
}

std::size_t Mlp::synapse_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l)
    n += sizes_[l] * sizes_[l + 1] + sizes_[l + 1];
  return n;
}

void sigmoid_inplace(Matrix& m) {
  for (float& x : m.data()) x = 1.0f / (1.0f + std::exp(-x));
}

void tanh_lecun_inplace(Matrix& m) {
  for (float& x : m.data())
    x = 1.7159f * std::tanh(0.6666667f * x);
}

void relu_inplace(Matrix& m) {
  for (float& x : m.data()) x = x > 0.0f ? x : 0.0f;
}

void activate_inplace(Matrix& m, Activation a) {
  switch (a) {
    case Activation::sigmoid: sigmoid_inplace(m); break;
    case Activation::tanh_lecun: tanh_lecun_inplace(m); break;
    case Activation::relu: relu_inplace(m); break;
  }
}

float activation_derivative(float a, Activation act) noexcept {
  switch (act) {
    case Activation::sigmoid:
      return a * (1.0f - a);
    case Activation::tanh_lecun: {
      const float t = a / 1.7159f;
      return 1.1439333f * (1.0f - t * t);
    }
    case Activation::relu:
      return a > 0.0f ? 1.0f : 0.0f;
  }
  return 0.0f;
}

void softmax_rows_inplace(Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* r = m.row(i);
    const float mx = *std::max_element(r, r + m.cols());
    float sum = 0.0f;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      r[j] = std::exp(r[j] - mx);
      sum += r[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < m.cols(); ++j) r[j] *= inv;
  }
}

void Mlp::forward_full(const Matrix& input,
                       std::vector<Matrix>& activations) const {
  if (input.cols() != sizes_.front())
    throw std::invalid_argument{"Mlp::forward: input width mismatch"};
  activations.resize(sizes_.size());
  activations[0] = input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix& out = activations[l + 1];
    if (out.rows() != input.rows() || out.cols() != sizes_[l + 1])
      out = Matrix{input.rows(), sizes_[l + 1]};
    gemm(activations[l], weights_[l], out);
    add_row_bias(out, biases_[l]);
    if (l + 1 < weights_.size()) {
      activate_inplace(out, activation_);
    } else {
      softmax_rows_inplace(out);
    }
  }
}

Matrix Mlp::forward(const Matrix& input) const {
  std::vector<Matrix> acts;
  forward_full(input, acts);
  return std::move(acts.back());
}

std::vector<std::uint8_t> Mlp::predict(const Matrix& input) const {
  const Matrix out = forward(input);
  std::vector<std::uint8_t> labels(out.rows());
  for (std::size_t i = 0; i < out.rows(); ++i) {
    const float* r = out.row(i);
    labels[i] = static_cast<std::uint8_t>(
        std::max_element(r, r + out.cols()) - r);
  }
  return labels;
}

double Mlp::accuracy(const Matrix& input,
                     std::span<const std::uint8_t> labels) const {
  if (labels.size() != input.rows())
    throw std::invalid_argument{"Mlp::accuracy: label count mismatch"};
  const std::vector<std::uint8_t> pred = predict(input);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (pred[i] == labels[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

void Mlp::check_reuse(const Matrix& input,
                      const FirstLayerReuse& reuse) const {
  if (reuse.clean == nullptr) return;
  if (weights_.size() < 2)
    throw std::invalid_argument{
        "Mlp: first-layer reuse needs a hidden layer"};
  if (reuse.clean->rows() != input.rows() ||
      reuse.clean->cols() != sizes_[1])
    throw std::invalid_argument{"Mlp: clean first layer shape mismatch"};
  for (const std::uint32_t j : reuse.columns)
    if (j >= sizes_[1])
      throw std::invalid_argument{"Mlp: dirty column out of range"};
}

void Mlp::first_layer_block(const Matrix& input, std::size_t r0,
                            std::size_t m, const FirstLayerReuse& reuse,
                            ColumnPatch& patch, Matrix& out,
                            backends::Backend backend) const {
  if (reuse.clean == nullptr) {
    gemm_block(input.row(r0), m, weights_[0], out, /*parallel=*/false,
               backend);
    add_row_bias(out, biases_[0]);
    if (weights_.size() == 1) {
      softmax_rows_inplace(out);
    } else {
      activate_inplace(out, activation_);
    }
    return;
  }
  // Every kernel accumulates each element over k in ascending order from 0
  // (backends/backend.hpp), and bias and activation are elementwise: a
  // column the deltas leave alone is the clean column bit for bit, and a
  // dirty column computed by the same kernel over the gathered W0[:, J] is
  // the full GEMM's column.
  const std::size_t n = sizes_[1];
  std::copy_n(reuse.clean->row(r0), m * n, out.row(0));
  const std::span<const std::uint32_t> cols = reuse.columns;
  if (cols.empty()) return;
  const std::size_t k = sizes_[0];
  const std::size_t d = cols.size();
  const std::size_t dp = ColumnPatch::padded(d);
  patch.weights.reshape(k, dp);
  const float* w = weights_[0].data().data();
  for (std::size_t i = 0; i < k; ++i) {
    const float* src = w + i * n;
    float* dst = patch.weights.row(i);
    for (std::size_t c = 0; c < d; ++c) dst[c] = src[cols[c]];
    std::fill(dst + d, dst + dp, 0.0f);
  }
  patch.bias.assign(dp, 0.0f);
  for (std::size_t c = 0; c < d; ++c) patch.bias[c] = biases_[0][cols[c]];
  patch.out.reshape(m, dp);
  gemm_block(input.row(r0), m, patch.weights, patch.out, /*parallel=*/false,
             backend);
  add_row_bias(patch.out, patch.bias);
  activate_inplace(patch.out, activation_);
  for (std::size_t i = 0; i < m; ++i) {
    const float* src = patch.out.row(i);
    float* dst = out.row(i);
    for (std::size_t c = 0; c < d; ++c) dst[cols[c]] = src[c];
  }
}

void Mlp::first_layer(const Matrix& input, Matrix& out,
                      backends::Backend backend) const {
  if (weights_.size() < 2)
    throw std::invalid_argument{
        "Mlp::first_layer: a single-layer net ends in a row-wise softmax"};
  if (input.cols() != sizes_.front())
    throw std::invalid_argument{"Mlp::forward: input width mismatch"};
  out.reshape(input.rows(), sizes_[1]);
  ColumnPatch unused;
  first_layer_block(input, 0, input.rows(), {}, unused, out, backend);
}

double Mlp::accuracy(const Matrix& input, std::span<const std::uint8_t> labels,
                     EvalWorkspace& workspace,
                     const FirstLayerReuse& reuse) const {
  if (labels.size() != input.rows())
    throw std::invalid_argument{"Mlp::accuracy: label count mismatch"};
  if (input.cols() != sizes_.front())
    throw std::invalid_argument{"Mlp::forward: input width mismatch"};
  check_reuse(input, reuse);
  workspace.bind(*this);
  const backends::Backend backend = workspace.backend_;
  const std::size_t rows = input.rows();
  const std::size_t batch = workspace.batch_rows();
  workspace.patch_.reserve(sizes_[0], batch, reuse.columns.size());
  Matrix* cur = &workspace.front_;
  Matrix* nxt = &workspace.back_;
  std::size_t hits = 0;
  for (std::size_t r0 = 0; r0 < rows; r0 += batch) {
    const std::size_t m = std::min(batch, rows - r0);
    // The GEMMs run serially: the chip loop above this call is already
    // data-parallel, and serial kernels keep each worker's batch resident
    // in its own cache slice.
    cur->reshape(m, sizes_[1]);
    first_layer_block(input, r0, m, reuse, workspace.patch_, *cur, backend);
    for (std::size_t l = 1; l < weights_.size(); ++l) {
      nxt->reshape(m, sizes_[l + 1]);
      gemm(*cur, weights_[l], *nxt, /*parallel=*/false, backend);
      add_row_bias(*nxt, biases_[l]);
      if (l + 1 < weights_.size()) {
        activate_inplace(*nxt, activation_);
      } else {
        softmax_rows_inplace(*nxt);
      }
      std::swap(cur, nxt);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float* r = cur->row(i);
      const auto pred = static_cast<std::uint8_t>(
          std::max_element(r, r + cur->cols()) - r);
      if (pred == labels[r0 + i]) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace hynapse::ann
