#include "circuit/write_lanes.hpp"

#include <algorithm>
#include <array>

#include "circuit/write_lanes_kernel.hpp"

namespace hynapse::circuit {

namespace {

detail::WriteLaneKernel kernel_of(WriteLaneTier tier) noexcept {
  switch (tier) {
    case WriteLaneTier::avx512:
      return detail::write_lanes_avx512();
    case WriteLaneTier::avx2:
      return detail::write_lanes_avx2();
    case WriteLaneTier::scalar:
      break;
  }
  return nullptr;
}

detail::LaneDevice lane_device(const TechCard& c, double w, double l) {
  return {c.vt0,        c.dibl,         c.n_sub * c.phi_t, c.b * (w / l),
          c.alpha,      0.5 * c.alpha,  c.vdsat_k,         c.lambda_clm};
}

}  // namespace

WriteLaneTier write_lane_tier() noexcept {
  if (detail::write_lanes_avx512()) return WriteLaneTier::avx512;
  if (detail::write_lanes_avx2()) return WriteLaneTier::avx2;
  return WriteLaneTier::scalar;
}

std::vector<WriteLaneTier> available_write_lane_tiers() {
  std::vector<WriteLaneTier> tiers{WriteLaneTier::scalar};
  for (const WriteLaneTier t : {WriteLaneTier::avx2, WriteLaneTier::avx512}) {
    if (kernel_of(t)) tiers.push_back(t);
  }
  return tiers;
}

std::string_view write_lane_tier_name(WriteLaneTier tier) noexcept {
  switch (tier) {
    case WriteLaneTier::avx512:
      return "avx512";
    case WriteLaneTier::avx2:
      return "avx2";
    case WriteLaneTier::scalar:
      break;
  }
  return "scalar";
}

WriteLaneCount write_fails_lanes(const Technology& tech,
                                 const Sizing6T& sizing,
                                 std::span<const Variation6T> cells,
                                 double vdd, double c_node, double t_budget,
                                 std::span<bool> fails, WriteLaneTier tier) {
  const auto scalar = [&](std::size_t k) {
    return Bitcell6T{tech, sizing, cells[k]}.write_fails(vdd, c_node,
                                                          t_budget);
  };
  const detail::WriteLaneKernel kernel = kernel_of(tier);
  if (kernel == nullptr) {
    for (std::size_t k = 0; k < cells.size(); ++k) fails[k] = scalar(k);
    return {};
  }
  // The devices as Bitcell6T builds them: every length is lmin.
  const detail::WriteLaneJob job{
      lane_device(tech.nmos, sizing.w_pg, tech.lmin),
      lane_device(tech.nmos, sizing.w_pd, tech.lmin),
      lane_device(tech.pmos, sizing.w_pu, tech.lmin),
      vdd,
      t_budget / Bitcell6T::kWriteSteps,
      c_node,
      -kWriteLaneBand * vdd,
      kWriteLaneBand};
  WriteLaneCount count;
  std::array<signed char, 256> verdict;
  for (std::size_t begin = 0; begin < cells.size(); begin += verdict.size()) {
    const std::size_t n = std::min(verdict.size(), cells.size() - begin);
    verdict.fill(detail::kLaneUndecided);  // unset -> the exact scalar path
    kernel(job, cells.data() + begin, n, verdict.data());
    for (std::size_t k = 0; k < n; ++k) {
      if (verdict[k] == detail::kLaneUndecided) {
        fails[begin + k] = scalar(begin + k);
        ++count.fallbacks;
      } else {
        fails[begin + k] = verdict[k] == detail::kLaneFail;
      }
    }
  }
  count.lane_decisions = cells.size() - count.fallbacks;
  return count;
}

}  // namespace hynapse::circuit
