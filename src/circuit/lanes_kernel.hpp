// Internal to the lanes (lanes.hpp): the jobs the lane kernels run and the
// kernel templates themselves. lanes_avx2.cpp and lanes_avx512.cpp each
// instantiate the templates under their own ISA flags; everything here has
// internal linkage, so no out-of-line copy compiled for one ISA can be
// picked by the linker for the other.
#pragma once

#include <cstddef>

#include "circuit/bitcell.hpp"
#include "circuit/lanes.hpp"
#include "circuit/solve.hpp"

namespace hynapse::circuit::detail {

/// One device as the lanes evaluate it: vt_eff = (vt0 + dvt) - dibl * vds,
/// x = (vgs - vt_eff) * inv_nvt, and from ph = exp(half_alpha * log(veff))
/// both vdsat = vdsat_k * ph and isat = bw * ph^2 (veff^alpha), one log and
/// one exp where Mosfet::ids takes two pows.
struct LaneDevice {
  double vt0;
  double dibl;
  double nvt;
  double inv_nvt;  ///< 1 / nvt
  double bw;  ///< b * (w / l), in the order Mosfet::ids multiplies them
  double alpha;
  double half_alpha;
  double vdsat_k;
  double lambda_clm;
};

/// The lanes' view of a device of width w and length lmin (the bitcells
/// build every device at lmin).
[[nodiscard]] LaneDevice lane_device(const TechCard& c, double w,
                                     double lmin) noexcept;

/// A write block's shared inputs: the three device sizes (both cell halves
/// use them), the transient's step, and the band.
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

/// A node between two devices whose KCL residual rises with the node
/// voltage x: f(x) = ids_a(gate_tied ? x : vdd, x) - ids_b(vdd - x, vdd - x).
/// With a = pull-down and b = access device (gate at vdd) it is the 6T read
/// bump or the 8T read node; with a = pull-down and b = pull-up (gates tied
/// to the node) an inverter's trip point.
struct NodeLaneJob {
  LaneDevice a;
  LaneDevice b;
  bool gate_tied;
  double vdd;
  double tol;
  double x0;  ///< first Newton iterate, as the scalar bracket starts
};

/// Lane steps after which a node bracket is handed out as it stands: the
/// Newton iteration closes in well under this on sampled cells, and a
/// bracket still wider than tol most likely sends its sample to the scalar
/// path.
inline constexpr int kNodeLaneSteps = 24;

/// One tier's kernels.
struct LaneKernels {
  /// verdict[k] for cells[k], k < n; a sample whose margin ends inside
  /// the band keeps its verdict.
  void (*write)(const WriteLaneJob& job, const Variation6T* cells,
                std::size_t n, LaneVerdict* verdict);
  /// out[k] holds the node of the sample whose devices deviate by dvt_a[k]
  /// and dvt_b[k].
  void (*node)(const NodeLaneJob& job, const double* dvt_a,
               const double* dvt_b, std::size_t n, Bracket* out);
  /// out[k] = ids of `dev` deviating by dvt[k], at vgs = vds = vdd - vn[k].
  void (*current)(const LaneDevice& dev, double vdd, const double* dvt,
                  const double* vn, std::size_t n, double* out);
};

/// The kernels of `tier`, or nullptr when this build has no lanes for it
/// or the CPU does not run it (lanes.cpp).
[[nodiscard]] const LaneKernels* lane_kernels(util::IsaTier tier) noexcept;
/// Each tier file's kernels, or nullptr when this build lacks them.
[[nodiscard]] const LaneKernels* lanes_avx2() noexcept;
[[nodiscard]] const LaneKernels* lanes_avx512() noexcept;

#if defined(HYNAPSE_LANES_KERNEL)

namespace {

/// libmvec's vector exp/log/log1p for V, supplied by the including TU.
template <typename V>
struct LaneMath;

template <typename V>
V splat(double x) {
  V v{};
  return v + x;
}

/// Mosfet::ids(vgs, vds, d_vgs, d_vds) lane for lane, with every branch
/// computed and blended (vt = vt0 + dvt per lane). Not a term-by-term copy:
/// ph = exp(half_alpha * log(veff)) gives both veff^half_alpha and, squared,
/// veff^alpha (veff is never negative, and a cut-off lane's log(0) = -inf
/// gives ph = 0, as pow does); x multiplies by 1 / nvt, and the slopes by
/// 1 / veff and 1 / vdsat, where the scalar divides. That moves the result
/// by a few ulps; tests/test_mc_decisions.cpp bounds the drift from the
/// scalar path far inside the callers' bands.
template <typename V>
V lane_ids(const LaneDevice& c, V vt, V vgs, V vds, V& d_vgs, V& d_vds) {
  using Math = LaneMath<V>;
  const V zero{};
  const auto clamped = vds < zero;
  vds = clamped ? zero : vds;
  const V vt_eff = vt - c.dibl * vds;
  const V x = (vgs - vt_eff) * c.inv_nvt;
  const auto strong = x > 40.0;
  const V ex = Math::exp(x);
  const V veff = strong ? vgs - vt_eff : c.nvt * Math::log1p(ex);
  const V dveff_dvgs = strong ? splat<V>(1.0) : ex / (1.0 + ex);
  const V ph = Math::exp(c.half_alpha * Math::log(veff));
  const V isat = c.bw * (ph * ph);
  const V vdsat = c.vdsat_k * ph;
  const V inv_veff = 1.0 / veff;
  const V inv_vdsat = 1.0 / vdsat;
  const V disat = c.alpha * isat * inv_veff;
  const V dvdsat = c.half_alpha * vdsat * inv_veff;
  const auto sat = vds >= vdsat;
  const V clm = 1.0 + c.lambda_clm * (vds - vdsat);
  const V r = vds * inv_vdsat;
  const V di_dr = isat * (2.0 - 2.0 * r);
  const V out = sat ? isat * clm : isat * r * (2.0 - r);
  const V di_dveff = sat ? disat * clm - isat * c.lambda_clm * dvdsat
                         : disat * r * (2.0 - r) -
                               di_dr * r * dvdsat * inv_vdsat;
  const V di_dvds = sat ? isat * c.lambda_clm : di_dr * inv_vdsat;
  const auto off = veff <= 0.0;
  d_vgs = off ? zero : di_dveff * dveff_dvgs;
  d_vds = off || clamped ? zero : di_dveff * c.dibl * dveff_dvgs + di_dvds;
  return off ? zero : out;
}

/// Mosfet::ids(vgs, vds) lane for lane, reformulated as above.
template <typename V>
V lane_ids(const LaneDevice& c, V vt, V vgs, V vds) {
  using Math = LaneMath<V>;
  const V zero{};
  vds = vds < zero ? zero : vds;
  const V vt_eff = vt - c.dibl * vds;
  const V x = (vgs - vt_eff) * c.inv_nvt;
  const V veff =
      x > 40.0 ? vgs - vt_eff : c.nvt * Math::log1p(Math::exp(x));
  const V ph = Math::exp(c.half_alpha * Math::log(veff));
  const V isat = c.bw * (ph * ph);
  const V vdsat = c.vdsat_k * ph;
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
void write_lanes(const WriteLaneJob& job, const Variation6T* cells,
                 std::size_t n, LaneVerdict* verdict) {
  constexpr int W = sizeof(V) / sizeof(double);
  const V vdd = splat<V>(job.vdd);
  const V dt_over_c = splat<V>(job.dt / job.c_node);
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
    q = clamp_lanes(q + dt_over_c * i_q, vdd);
    qb = clamp_lanes(qb + dt_over_c * i_qb, vdd);
    steps += 1.0;
    const V margin = q - qb;
    const auto passed = margin < job.pass_below;
    const auto ended = passed || steps >= last_step;
    for (int l = 0; l < W; ++l) {
      if (!ended[l] || !live[l]) continue;
      if (passed[l]) {
        verdict[sample[l]] = LaneVerdict::pass;
      } else if (margin[l] / job.vdd > job.fail_above) {
        verdict[sample[l]] = LaneVerdict::fail;
      }
      --live_lanes;
      load(l);
    }
  }
}

/// newton_bracket_increasing (solve.hpp) on the node residual of every
/// sample, W at a time, each lane taking the next sample as soon as its
/// bracket closes. The steps are the scalar ones, on the lanes' currents;
/// the lanes skip the scalar's two end-point evaluations, which only decide
/// its clamps: a bracket that never moved off 0 or vdd still holds the
/// clamped root.
/// A lane still open after kNodeLaneSteps hands out its wider bracket.
template <typename V>
void node_lanes(const NodeLaneJob& job, const double* dvt_a,
                const double* dvt_b, std::size_t n, Bracket* out) {
  constexpr int W = sizeof(V) / sizeof(double);
  const V vdd = splat<V>(job.vdd);
  const double tol = job.tol;
  V lo{}, hi{}, x{};
  V vt_a{}, vt_b{};  // vt0 + dvt per lane, as Mosfet::ids sums them
  V steps{};
  std::size_t sample[W] = {};
  bool live[W] = {};
  std::size_t next = 0;
  int live_lanes = 0;
  const auto load = [&](int l) {
    live[l] = next < n;
    if (!live[l]) return;
    vt_a[l] = job.a.vt0 + dvt_a[next];
    vt_b[l] = job.b.vt0 + dvt_b[next];
    lo[l] = 0.0;
    hi[l] = job.vdd;
    x[l] = job.x0;
    steps[l] = 0.0;
    sample[l] = next++;
    ++live_lanes;
  };
  for (int l = 0; l < W; ++l) load(l);
  while (live_lanes > 0) {
    V a_g, a_d, b_g, b_d;
    const V i_a =
        lane_ids(job.a, vt_a, job.gate_tied ? x : vdd, x, a_g, a_d);
    const V i_b = lane_ids(job.b, vt_b, vdd - x, vdd - x, b_g, b_d);
    const V df = job.gate_tied ? a_g + a_d + b_g + b_d : a_d + b_g + b_d;
    const V fx = i_a - i_b;
    const auto below = fx < 0.0;
    lo = below ? x : lo;
    hi = below ? hi : x;
    const V mid = 0.5 * (lo + hi);
    const V step = -fx / df;
    const auto converged = (step < 0.0 ? -step : step) < 0.5 * tol;
    // Converged to within tol: overshoot by a quarter tol so the next
    // evaluation lands on the far side of the root. The step's sign is
    // that of -fx, -0.0 included, as copysign reads it.
    V xn = x + step;
    xn = converged ? xn + (below ? splat<V>(0.25 * tol)
                                 : splat<V>(-0.25 * tol))
                   : xn;
    xn = df > 0.0 ? xn : mid;
    x = xn > lo && xn < hi ? xn : mid;
    steps += 1.0;
    const auto closed =
        !(hi - lo > tol) || !(mid > lo && mid < hi) || steps >= kNodeLaneSteps;
    for (int l = 0; l < W; ++l) {
      if (!closed[l] || !live[l]) continue;
      out[sample[l]] = {lo[l], hi[l]};
      --live_lanes;
      load(l);
    }
  }
}

/// Read currents: one lane_ids per W samples.
template <typename V>
void current_lanes(const LaneDevice& dev, double vdd, const double* dvt,
                   const double* vn, std::size_t n, double* out) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  for (std::size_t k = 0; k < n; k += W) {
    const std::size_t m = n - k < W ? n - k : W;
    V vt = splat<V>(dev.vt0);
    V v = splat<V>(vdd);
    for (std::size_t l = 0; l < m; ++l) {
      vt[l] = dev.vt0 + dvt[k + l];
      v[l] = vdd - vn[k + l];
    }
    const V i = lane_ids(dev, vt, v, v);
    for (std::size_t l = 0; l < m; ++l) out[k + l] = i[l];
  }
}

/// The kernel table of lane type V.
template <typename V>
constexpr LaneKernels kLaneKernels{write_lanes<V>, node_lanes<V>,
                                   current_lanes<V>};

}  // namespace

#endif  // HYNAPSE_LANES_KERNEL

}  // namespace hynapse::circuit::detail
