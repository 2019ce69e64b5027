#include "ann/workspace.hpp"

#include <algorithm>

#include "ann/mlp.hpp"

namespace hynapse::ann {

namespace {

std::size_t widest_layer(const Mlp& net) {
  const std::vector<std::size_t>& sizes = net.layer_sizes();
  std::size_t widest = 0;
  for (std::size_t l = 1; l < sizes.size(); ++l)
    widest = std::max(widest, sizes[l]);
  return widest;
}

}  // namespace

void ColumnPatch::reserve(std::size_t fan_in, std::size_t rows,
                          std::size_t cols) {
  weights.reserve(fan_in, padded(cols));
  bias.reserve(padded(cols));
  out.reserve(rows, padded(cols));
}

void EvalWorkspace::bind(const Mlp& net) {
  const std::size_t widest = widest_layer(net);
  front_.reserve(batch_rows_, widest);
  back_.reserve(batch_rows_, widest);
}

void GroupEvalWorkspace::bind(const Mlp& net, std::size_t group) {
  const std::size_t widest = widest_layer(net);
  if (front_.size() < group) {
    front_.resize(group);
    back_.resize(group);
  }
  for (std::size_t c = 0; c < group; ++c) {
    front_[c].reserve(batch_rows_, widest);
    back_[c].reserve(batch_rows_, widest);
  }
  if (hits_.size() < group) hits_.resize(group);
}

}  // namespace hynapse::ann
