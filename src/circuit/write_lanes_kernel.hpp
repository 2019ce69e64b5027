// Internal to the write lanes (write_lanes.hpp): the job the lane kernels
// run and the kernel template itself. write_lanes_avx2.cpp and
// write_lanes_avx512.cpp each instantiate the template under their own ISA
// flags; everything here has internal linkage, so no out-of-line copy
// compiled for one ISA can be picked by the linker for the other.
#pragma once

#include <cstddef>

#include "circuit/bitcell.hpp"

namespace hynapse::circuit::detail {

/// One device of the write transient as Mosfet::ids reads its card:
/// vt_eff = (vt0 + dvt) - dibl * vds, isat = bw * veff^alpha,
/// vdsat = vdsat_k * veff^half_alpha.
struct LaneDevice {
  double vt0;
  double dibl;
  double nvt;
  double bw;  ///< b * (w / l), in the order Mosfet::ids multiplies them
  double alpha;
  double half_alpha;
  double vdsat_k;
  double lambda_clm;
};

/// A block's shared inputs: the three device sizes (both cell halves use
/// them), the transient's step, and the band.
struct WriteLaneJob {
  LaneDevice pg;
  LaneDevice pd;
  LaneDevice pu;
  double vdd;
  double dt;
  double c_node;
  double pass_below;  ///< a lane passes once Q - QB < pass_below [V]
  double fail_above;  ///< and fails when (Q - QB)/vdd > fail_above at the end
};

/// Lane verdicts: pass, fail, or inside the band (decide with write_fails).
inline constexpr signed char kLanePass = 0;
inline constexpr signed char kLaneFail = 1;
inline constexpr signed char kLaneUndecided = -1;

/// verdict[k] for cells[k], k < n.
using WriteLaneKernel = void (*)(const WriteLaneJob& job,
                                 const Variation6T* cells, std::size_t n,
                                 signed char* verdict);

/// The tier's kernel, or nullptr when this build lacks the tier or the CPU
/// cannot run it.
[[nodiscard]] WriteLaneKernel write_lanes_avx2() noexcept;
[[nodiscard]] WriteLaneKernel write_lanes_avx512() noexcept;

#if defined(HYNAPSE_WRITE_LANES_KERNEL)

namespace {

/// libmvec's vector exp/log1p/pow for V, supplied by the including TU.
template <typename V>
struct LaneMath;

template <typename V>
V splat(double x) {
  V v{};
  return v + x;
}

/// Mosfet::ids lane for lane: the same expressions in the same order, with
/// both branches computed and blended (vt = vt0 + dvt per lane).
template <typename V>
V lane_ids(const LaneDevice& c, V vt, V vgs, V vds) {
  using Math = LaneMath<V>;
  const V zero{};
  vds = vds < zero ? zero : vds;
  const V vt_eff = vt - c.dibl * vds;
  const V x = (vgs - vt_eff) / c.nvt;
  const V veff =
      x > 40.0 ? vgs - vt_eff : c.nvt * Math::log1p(Math::exp(x));
  const V isat = c.bw * Math::pow(veff, splat<V>(c.alpha));
  const V vdsat = c.vdsat_k * Math::pow(veff, splat<V>(c.half_alpha));
  const V r = vds / vdsat;
  const V out = vds >= vdsat ? isat * (1.0 + c.lambda_clm * (vds - vdsat))
                             : isat * r * (2.0 - r);
  return veff <= 0.0 ? zero : out;
}

/// std::clamp(v, 0, hi) lane for lane.
template <typename V>
V clamp_lanes(V v, V hi) {
  const V zero{};
  return v < zero ? zero : (hi < v ? hi : v);
}

/// Runs the write transient of Bitcell6T::write_fails on every sample,
/// W = sizeof(V) / sizeof(double) at a time, refilling a lane with the next
/// sample as soon as its current one is decided or has run out of steps.
template <typename V>
void decide_lanes(const WriteLaneJob& job, const Variation6T* cells,
                  std::size_t n, signed char* verdict) {
  constexpr int W = sizeof(V) / sizeof(double);
  const V vdd = splat<V>(job.vdd);
  const V dt = splat<V>(job.dt);
  const V c_node = splat<V>(job.c_node);
  const V last_step = splat<V>(Bitcell6T::kWriteSteps);
  V q{}, qb{};
  V steps{};  // Euler steps each lane's sample has taken
  // vt0 + dvt per device and lane, as Mosfet::ids sums them.
  V pg_l{}, pd_l{}, pu_l{}, pg_r{}, pd_r{}, pu_r{};
  std::size_t sample[W] = {};
  bool live[W] = {};
  std::size_t next = 0;
  int live_lanes = 0;
  const auto load = [&](int l) {
    live[l] = next < n;
    if (!live[l]) return;
    const Variation6T& v = cells[next];
    pg_l[l] = job.pg.vt0 + v.pg_l;
    pd_l[l] = job.pd.vt0 + v.pd_l;
    pu_l[l] = job.pu.vt0 + v.pu_l;
    pg_r[l] = job.pg.vt0 + v.pg_r;
    pd_r[l] = job.pd.vt0 + v.pd_r;
    pu_r[l] = job.pu.vt0 + v.pu_r;
    q[l] = job.vdd;
    qb[l] = 0.0;
    steps[l] = 0.0;
    sample[l] = next++;
    ++live_lanes;
  };
  for (int l = 0; l < W; ++l) load(l);
  while (live_lanes > 0) {
    const V i_q = lane_ids(job.pu, pu_l, vdd - qb, vdd - q) -
                  lane_ids(job.pd, pd_l, qb, q) -
                  lane_ids(job.pg, pg_l, vdd, q);
    const V i_qb = lane_ids(job.pu, pu_r, vdd - q, vdd - qb) -
                   lane_ids(job.pd, pd_r, q, qb) +
                   lane_ids(job.pg, pg_r, vdd - qb, vdd - qb);
    q = clamp_lanes(q + dt * i_q / c_node, vdd);
    qb = clamp_lanes(qb + dt * i_qb / c_node, vdd);
    steps += 1.0;
    const V margin = q - qb;
    const auto passed = margin < job.pass_below;
    const auto ended = passed || steps >= last_step;
    for (int l = 0; l < W; ++l) {
      if (!ended[l] || !live[l]) continue;
      if (passed[l]) {
        verdict[sample[l]] = kLanePass;
      } else {
        verdict[sample[l]] =
            margin[l] / job.vdd > job.fail_above ? kLaneFail : kLaneUndecided;
      }
      --live_lanes;
      load(l);
    }
  }
}

}  // namespace

#endif  // HYNAPSE_WRITE_LANES_KERNEL

}  // namespace hynapse::circuit::detail
