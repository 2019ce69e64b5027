#include "circuit/lanes.hpp"

#include <algorithm>
#include <array>

#include "circuit/lanes_kernel.hpp"

namespace hynapse::circuit {

namespace {

using detail::lane_device;

/// Samples a kernel call takes at most: the per-device deviations are
/// gathered into arrays this long.
constexpr std::size_t kChunk = 256;

/// Runs the node kernel on cells in chunks, with device a deviating by
/// dvt_a(cell) and device b by dvt_b(cell).
template <typename Cell, typename DvtA, typename DvtB>
void node_brackets(const detail::LaneKernels& kernels,
                   const detail::NodeLaneJob& job, std::span<const Cell> cells,
                   DvtA dvt_a, DvtB dvt_b, std::span<Bracket> out) {
  std::array<double, kChunk> a;
  std::array<double, kChunk> b;
  for (std::size_t begin = 0; begin < cells.size(); begin += kChunk) {
    const std::size_t n = std::min(kChunk, cells.size() - begin);
    for (std::size_t k = 0; k < n; ++k) {
      a[k] = dvt_a(cells[begin + k]);
      b[k] = dvt_b(cells[begin + k]);
    }
    kernels.node(job, a.data(), b.data(), n, out.data() + begin);
  }
}

/// Runs the current kernel on cells in chunks, the device deviating by
/// dvt(cell).
template <typename Cell, typename Dvt>
void currents(const detail::LaneKernels& kernels,
              const detail::LaneDevice& dev, double vdd,
              std::span<const Cell> cells, Dvt dvt, std::span<const double> vn,
              std::span<double> out) {
  std::array<double, kChunk> d;
  for (std::size_t begin = 0; begin < cells.size(); begin += kChunk) {
    const std::size_t n = std::min(kChunk, cells.size() - begin);
    for (std::size_t k = 0; k < n; ++k) d[k] = dvt(cells[begin + k]);
    kernels.current(dev, vdd, d.data(), vn.data() + begin, n,
                    out.data() + begin);
  }
}

}  // namespace

detail::LaneDevice detail::lane_device(const TechCard& c, double w,
                                       double lmin) noexcept {
  const double nvt = c.n_sub * c.phi_t;
  return {.vt0 = c.vt0,
          .dibl = c.dibl,
          .nvt = nvt,
          .inv_nvt = 1.0 / nvt,
          .bw = c.b * (w / lmin),
          .alpha = c.alpha,
          .half_alpha = 0.5 * c.alpha,
          .vdsat_k = c.vdsat_k,
          .lambda_clm = c.lambda_clm};
}

const detail::LaneKernels* detail::lane_kernels(util::IsaTier tier) noexcept {
  return util::isa_table(tier, lanes_avx2(), lanes_avx512());
}

bool write_verdicts_lanes(const Technology& tech, const Sizing6T& sizing,
                          std::span<const Variation6T> cells, double vdd,
                          double c_node, double t_budget,
                          std::span<LaneVerdict> out, util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  const detail::WriteLaneJob job{
      lane_device(tech.nmos, sizing.w_pg, tech.lmin),
      lane_device(tech.nmos, sizing.w_pd, tech.lmin),
      lane_device(tech.pmos, sizing.w_pu, tech.lmin),
      vdd,
      t_budget / Bitcell6T::kWriteSteps,
      c_node,
      -kWriteLaneBand * vdd,
      kWriteLaneBand};
  std::fill(out.begin(), out.end(), LaneVerdict::undecided);
  kernels->write(job, cells.data(), cells.size(), out.data());
  return true;
}

bool read_node_brackets_lanes(const Technology& tech, const Sizing6T& sizing,
                              std::span<const Variation6T> cells, double vdd,
                              double tol, std::span<Bracket> out,
                              util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  // Bitcell6T::read_bump_bracket: PD_L in series with PG_L.
  const detail::NodeLaneJob job{lane_device(tech.nmos, sizing.w_pd, tech.lmin),
                                lane_device(tech.nmos, sizing.w_pg, tech.lmin),
                                false,
                                vdd,
                                tol,
                                0.1 * vdd};
  node_brackets(
      *kernels, job, cells, [](const Variation6T& v) { return v.pd_l; },
      [](const Variation6T& v) { return v.pg_l; }, out);
  return true;
}

bool read_node_brackets_lanes(const Technology& tech, const Sizing8T& sizing,
                              std::span<const Variation8T> cells, double vdd,
                              double tol, std::span<Bracket> out,
                              util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  // Bitcell8T::read_node_bracket: RPD in series with RPG.
  const detail::NodeLaneJob job{
      lane_device(tech.nmos, sizing.w_rpd, tech.lmin),
      lane_device(tech.nmos, sizing.w_rpg, tech.lmin),
      false,
      vdd,
      tol,
      0.1 * vdd};
  node_brackets(
      *kernels, job, cells, [](const Variation8T& v) { return v.rpd; },
      [](const Variation8T& v) { return v.rpg; }, out);
  return true;
}

bool trip_brackets_lanes(const Technology& tech, const Sizing6T& sizing,
                         std::span<const Variation6T> cells, Side side,
                         double vdd, double tol, std::span<Bracket> out,
                         util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  // Inverter::trip_bracket: the half-cell's pull-down against its pull-up.
  const detail::NodeLaneJob job{lane_device(tech.nmos, sizing.w_pd, tech.lmin),
                                lane_device(tech.pmos, sizing.w_pu, tech.lmin),
                                true,
                                vdd,
                                tol,
                                0.5 * vdd};
  const bool left = side == Side::left;
  node_brackets(
      *kernels, job, cells,
      [left](const Variation6T& v) { return left ? v.pd_l : v.pd_r; },
      [left](const Variation6T& v) { return left ? v.pu_l : v.pu_r; }, out);
  return true;
}

bool read_currents_lanes(const Technology& tech, const Sizing6T& sizing,
                         std::span<const Variation6T> cells, double vdd,
                         std::span<const double> vn, std::span<double> out,
                         util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  currents(*kernels, lane_device(tech.nmos, sizing.w_pg, tech.lmin), vdd,
           cells, [](const Variation6T& v) { return v.pg_l; }, vn, out);
  return true;
}

bool read_currents_lanes(const Technology& tech, const Sizing8T& sizing,
                         std::span<const Variation8T> cells, double vdd,
                         std::span<const double> vn, std::span<double> out,
                         util::IsaTier tier) {
  const detail::LaneKernels* kernels = detail::lane_kernels(tier);
  if (kernels == nullptr) return false;
  currents(*kernels, lane_device(tech.nmos, sizing.w_rpg, tech.lmin), vdd,
           cells, [](const Variation8T& v) { return v.rpg; }, vn, out);
  return true;
}

}  // namespace hynapse::circuit
