#include "ann/workspace.hpp"

#include <algorithm>

#include "ann/mlp.hpp"

namespace hynapse::ann {

void ColumnPatch::reserve(std::size_t fan_in, std::size_t rows,
                          std::size_t cols) {
  weights.reserve(fan_in, padded(cols));
  bias.reserve(padded(cols));
  out.reserve(rows, padded(cols));
}

void EvalWorkspace::bind(const Mlp& net) {
  const std::vector<std::size_t>& sizes = net.layer_sizes();
  std::size_t widest = 0;
  for (std::size_t l = 1; l < sizes.size(); ++l)
    widest = std::max(widest, sizes[l]);
  front_.reserve(batch_rows_, widest);
  back_.reserve(batch_rows_, widest);
}

}  // namespace hynapse::ann
