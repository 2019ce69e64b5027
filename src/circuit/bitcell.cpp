#include "circuit/bitcell.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <stdexcept>

#include "circuit/solve.hpp"

namespace hynapse::circuit {

namespace {

Inverter make_half(const Technology& tech, const Sizing6T& s, double dvt_pu,
                   double dvt_pd) {
  return Inverter{Mosfet{tech.pmos, s.w_pu, tech.lmin, dvt_pu},
                  Mosfet{tech.nmos, s.w_pd, tech.lmin, dvt_pd}};
}

// A pull-down (gate at vdd) in series with an access device from a line
// precharged at vdd (gate at vdd): the 6T read path (PD_L + PG_L) and the 8T
// read buffer (RPD + RPG). The KCL residual at the shared node,
// I_pd(vn) - I_pg(vn), is monotone increasing in vn.
double series_node(const Mosfet& pd, const Mosfet& pg, double vdd) {
  const auto residual = [&](double vn) {
    const double i_pd = pd.ids(vdd, vn);
    const double i_pg = pg.ids(vdd - vn, vdd - vn);
    return i_pd - i_pg;
  };
  return bisect_increasing(residual, 0.0, vdd);
}

Bracket series_node_bracket(const Mosfet& pd, const Mosfet& pg, double vdd,
                            double tol) {
  const auto residual = [&](double vn, double& df) {
    double pd_g = 0.0, pd_d = 0.0, pg_g = 0.0, pg_d = 0.0;
    const double i_pd = pd.ids(vdd, vn, pd_g, pd_d);
    const double i_pg = pg.ids(vdd - vn, vdd - vn, pg_g, pg_d);
    df = pd_d + pg_g + pg_d;
    return i_pd - i_pg;
  };
  // The node sits near ground: the pull-down is the stronger device.
  return newton_bracket_increasing(residual, 0.0, vdd, tol, 0.1 * vdd);
}

}  // namespace

Bitcell6T::Bitcell6T(const Technology& tech, const Sizing6T& sizing,
                     const Variation6T& var)
    : tech_{&tech},
      sizing_{sizing},
      inv_l_{make_half(tech, sizing, var.pu_l, var.pd_l)},
      inv_r_{make_half(tech, sizing, var.pu_r, var.pd_r)},
      pg_l_{tech.nmos, sizing.w_pg, tech.lmin, var.pg_l},
      pg_r_{tech.nmos, sizing.w_pg, tech.lmin, var.pg_r} {
  if (!(sizing.w_pg > 0.0) || !(sizing.w_pd > 0.0) || !(sizing.w_pu > 0.0))
    throw std::invalid_argument{"Bitcell6T: widths must be positive"};
}

double Bitcell6T::vtc(Side side, double vin, double vdd,
                      bool read_loaded) const {
  const Inverter& inv = (side == Side::left) ? inv_l_ : inv_r_;
  const Mosfet& pg = (side == Side::left) ? pg_l_ : pg_r_;
  // During a read both bitlines are precharged to vdd and the WL is high, so
  // the access transistor pulls the half-cell output toward vdd.
  return inv.output(vin, vdd, read_loaded ? &pg : nullptr, vdd);
}

double Bitcell6T::read_snm(double vdd, int grid) const {
  const TabulatedVtc f{
      [&](double v) { return vtc(Side::left, v, vdd, true); }, vdd, grid};
  const TabulatedVtc g{
      [&](double v) { return vtc(Side::right, v, vdd, true); }, vdd, grid};
  return static_noise_margin(f, g);
}

double Bitcell6T::hold_snm(double vdd, int grid) const {
  const TabulatedVtc f{
      [&](double v) { return vtc(Side::left, v, vdd, false); }, vdd, grid};
  const TabulatedVtc g{
      [&](double v) { return vtc(Side::right, v, vdd, false); }, vdd, grid};
  return static_noise_margin(f, g);
}

double Bitcell6T::write_margin(double vdd) const {
  // Static flip test at a given left-bitline voltage: relax the cross-coupled
  // pair by damped fixed-point iteration from the (Q,QB) = (1,0) state with
  // WL high, BLB at vdd. The cell is written when Q settles below QB.
  const auto flips_at = [&](double v_bl) {
    double q = vdd;
    double qb = 0.0;
    for (int i = 0; i < 240; ++i) {
      const double q_next = inv_l_.output(qb, vdd, &pg_l_, v_bl);
      const double qb_next = inv_r_.output(q, vdd, &pg_r_, vdd);
      // Damping stabilizes the iteration near the critical bitline voltage.
      q = 0.5 * (q + q_next);
      qb = 0.5 * (qb + qb_next);
    }
    return q < qb;
  };
  if (!flips_at(0.0)) return 0.0;
  double lo = 0.0;   // flips
  double hi = vdd;   // assume no flip at vdd (cell is stable in hold)
  if (flips_at(hi)) return vdd;
  for (int i = 0; i < 30; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (flips_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double Bitcell6T::read_bump(double vdd) const {
  // Series PG (from BL at vdd) and PD (to ground, gate at vdd via QB) on the
  // '0' side.
  return series_node(inv_l_.pull_down(), pg_l_, vdd);
}

Bracket Bitcell6T::read_bump_bracket(double vdd, double tol) const {
  return series_node_bracket(inv_l_.pull_down(), pg_l_, vdd, tol);
}

double Bitcell6T::read_current_at(double vdd, double vn) const {
  return pg_l_.ids(vdd - vn, vdd - vn);
}

double Bitcell6T::read_current(double vdd) const {
  return read_current_at(vdd, read_bump(vdd));
}

bool Bitcell6T::read_disturb_fails(double vdd) const {
  // The bumped '0' node drives the opposite inverter; if the bump exceeds
  // that inverter's trip point the cell flips during the read.
  return read_bump(vdd) >= inv_r_.trip_voltage(vdd);
}

double Bitcell6T::write_zero_level(double vdd) const {
  // Writing 0 into Q (currently 1): PG_L pulls Q toward BL = 0 while PU_L
  // (gate QB = 0, fully on) fights. The QB side has not flipped yet, which
  // is the worst case.
  const auto residual = [&](double vq) {
    const double i_down = pg_l_.ids(vdd, vq);               // source at BL=0
    const double i_up = inv_l_.pull_up().ids(vdd, vdd - vq);  // PMOS fully on
    return i_down - i_up;
  };
  // i_down rises with vq, i_up falls: residual increasing -> root is the DC
  // equilibrium level.
  return bisect_increasing(residual, 0.0, vdd);
}

bool Bitcell6T::static_write_fails(double vdd) const {
  return write_zero_level(vdd) >= inv_r_.trip_voltage(vdd);
}

double Bitcell6T::write_delay(double vdd, double c_node) const {
  const double v_trip = inv_r_.trip_voltage(vdd);
  const double v_final = write_zero_level(vdd);
  if (v_final >= v_trip) return std::numeric_limits<double>::infinity();
  // Integrate c dV / I_net from vdd down to the trip point. The integrand is
  // finite on the whole path because v_final < v_trip.
  constexpr int steps = 24;
  const double dv = (vdd - v_trip) / steps;
  double t = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double v = vdd - (static_cast<double>(i) + 0.5) * dv;
    const double i_down = pg_l_.ids(vdd, v);
    const double i_up = inv_l_.pull_up().ids(vdd, vdd - v);
    const double i_net = i_down - i_up;
    if (i_net <= 0.0) return std::numeric_limits<double>::infinity();
    t += c_node * dv / i_net;
  }
  return t;
}

namespace {

/// Where a write transient stopped: the node voltages, the Q - QB margin one
/// step earlier, and the Euler steps taken.
struct WriteRun {
  double q;
  double qb;
  double prev_margin;
  int steps;
};

/// The one two-node write transient behind every write query: explicit
/// Euler on both storage nodes from (Q,QB) = (vdd, 0) with BL = 0,
/// BLB = vdd and WL = vdd, at most `steps` steps of dt. stop(q, qb) is asked
/// before every step and after the last; the run ends at the first yes.
template <typename Stop>
WriteRun write_transient(const Inverter& inv_l, const Inverter& inv_r,
                         const Mosfet& pg_l, const Mosfet& pg_r, double vdd,
                         double c_node, double dt, int steps, Stop stop) {
  WriteRun r{vdd, 0.0, vdd, 0};
  for (;; ++r.steps) {
    if (stop(r.q, r.qb) || r.steps == steps) return r;
    // Node Q: PU_L sources current, PD_L sinks, PG_L drains to BL = 0.
    const double i_q = inv_l.pull_up().ids(vdd - r.qb, vdd - r.q) -
                       inv_l.pull_down().ids(r.qb, r.q) -
                       pg_l.ids(vdd, r.q);
    // Node QB: PU_R sources, PD_R sinks, PG_R assists from BLB = vdd.
    const double i_qb = inv_r.pull_up().ids(vdd - r.q, vdd - r.qb) -
                        inv_r.pull_down().ids(r.q, r.qb) +
                        pg_r.ids(vdd - r.qb, vdd - r.qb);
    r.prev_margin = r.q - r.qb;
    r.q = std::clamp(r.q + dt * i_q / c_node, 0.0, vdd);
    r.qb = std::clamp(r.qb + dt * i_qb / c_node, 0.0, vdd);
  }
}

}  // namespace

double Bitcell6T::write_flip_time(double vdd, double c_node,
                                  double t_max) const {
  constexpr int kSteps = 2 * kWriteSteps;
  const double dt = t_max / kSteps;
  const WriteRun r = write_transient(
      inv_l_, inv_r_, pg_l_, pg_r_, vdd, c_node, dt, kSteps,
      [](double q, double qb) { return q - qb < 0.0; });
  const double margin = r.q - r.qb;
  if (!(margin < 0.0)) return std::numeric_limits<double>::infinity();
  // Linear interpolation of the crossover inside the last step.
  const double frac = r.prev_margin / (r.prev_margin - margin);
  return (static_cast<double>(r.steps - 1) + frac) * dt;
}

double Bitcell6T::write_residual(double vdd, double c_node,
                                 double t_budget) const {
  // Stops once deeply flipped: the outcome cannot change any more.
  const WriteRun r = write_transient(
      inv_l_, inv_r_, pg_l_, pg_r_, vdd, c_node, t_budget / kWriteSteps,
      kWriteSteps,
      [vdd](double q, double qb) { return q < 0.05 * vdd && qb > 0.9 * vdd; });
  return (r.q - r.qb) / vdd;
}

bool Bitcell6T::write_fails(double vdd, double c_node, double t_budget) const {
  const double crossed = -1e-9 * vdd;
  const WriteRun r = write_transient(
      inv_l_, inv_r_, pg_l_, pg_r_, vdd, c_node, t_budget / kWriteSteps,
      kWriteSteps, [vdd, crossed](double q, double qb) {
        return (q < 0.05 * vdd && qb > 0.9 * vdd) || q - qb < crossed;
      });
  return (r.q - r.qb) / vdd > 0.0;
}

double Bitcell6T::leakage(double vdd) const {
  // Storing (Q,QB) = (0,1), WL low, bitlines precharged at vdd: the off
  // devices are PU_L (vds = vdd), PG_L (bitline into the low node) and PD_R.
  const double i_pu = inv_l_.pull_up().leakage(vdd);
  const double i_pg = pg_l_.leakage(vdd);
  const double i_pd = inv_r_.pull_down().leakage(vdd);
  return i_pu + i_pg + i_pd;
}

double Bitcell6T::hold_residual(double vdd) const {
  // Unloaded (WL low) relaxation from each stored corner. A healthy cell
  // regenerates toward the rails; a variation-crippled cell at a too-low
  // standby voltage collapses through the metastable point. Retention
  // requires holding *either* datum, so the worse state decides -- an
  // asymmetric cell typically keeps one value comfortably while losing the
  // other.
  const auto relax = [&](double q0, double qb0) {
    double q = q0;
    double qb = qb0;
    for (int i = 0; i < 48; ++i) {
      const double q_next = inv_l_.output(qb, vdd);
      const double qb_next = inv_r_.output(q, vdd);
      q = 0.5 * (q + q_next);
      qb = 0.5 * (qb + qb_next);
    }
    return std::make_pair(q, qb);
  };
  const auto [q1, qb1] = relax(vdd, 0.0);   // stored '1': fails if qb > q
  const auto [q0, qb0] = relax(0.0, vdd);   // stored '0': fails if q > qb
  return std::max(qb1 - q1, q0 - qb0) / vdd;
}

bool Bitcell6T::holds_state(double vdd) const {
  return hold_residual(vdd) < 0.0;
}

double Bitcell6T::trip_voltage(Side side, double vdd) const {
  return (side == Side::left ? inv_l_ : inv_r_).trip_voltage(vdd);
}

Bracket Bitcell6T::trip_bracket(Side side, double vdd, double tol) const {
  return (side == Side::left ? inv_l_ : inv_r_).trip_bracket(vdd, tol);
}

Bitcell8T::Bitcell8T(const Technology& tech, const Sizing8T& sizing,
                     const Variation8T& var)
    : tech_{&tech},
      sizing_{sizing},
      core_{tech, sizing.core, var.core},
      rpg_{tech.nmos, sizing.w_rpg, tech.lmin, var.rpg},
      rpd_{tech.nmos, sizing.w_rpd, tech.lmin, var.rpd} {
  if (!(sizing.w_rpg > 0.0) || !(sizing.w_rpd > 0.0))
    throw std::invalid_argument{"Bitcell8T: read-buffer widths must be positive"};
}

double Bitcell8T::read_snm(double vdd, int grid) const {
  return core_.hold_snm(vdd, grid);
}

double Bitcell8T::hold_snm(double vdd, int grid) const {
  return core_.hold_snm(vdd, grid);
}

double Bitcell8T::write_margin(double vdd) const {
  return core_.write_margin(vdd);
}

double Bitcell8T::read_node(double vdd) const {
  // RPD gate is driven by the full-swing storage node, RPG by the read WL;
  // both at vdd while discharging the read bitline (also precharged at vdd).
  return series_node(rpd_, rpg_, vdd);
}

Bracket Bitcell8T::read_node_bracket(double vdd, double tol) const {
  return series_node_bracket(rpd_, rpg_, vdd, tol);
}

double Bitcell8T::read_current_at(double vdd, double vn) const {
  return rpg_.ids(vdd - vn, vdd - vn);
}

double Bitcell8T::read_current(double vdd) const {
  return read_current_at(vdd, read_node(vdd));
}

bool Bitcell8T::static_write_fails(double vdd) const {
  return core_.static_write_fails(vdd);
}

double Bitcell8T::write_delay(double vdd, double c_node) const {
  return core_.write_delay(vdd, c_node);
}

double Bitcell8T::write_flip_time(double vdd, double c_node,
                                  double t_max) const {
  return core_.write_flip_time(vdd, c_node, t_max);
}

double Bitcell8T::write_residual(double vdd, double c_node,
                                 double t_budget) const {
  return core_.write_residual(vdd, c_node, t_budget);
}

bool Bitcell8T::write_fails(double vdd, double c_node, double t_budget) const {
  return core_.write_fails(vdd, c_node, t_budget);
}

double Bitcell8T::leakage(double vdd) const {
  // Core leakage plus the read-buffer stack, averaged over stored state:
  // buffer input high -> RPD on, full RPG subthreshold leak from the read
  // bitline; buffer input low -> two-off-device stack, suppressed by the
  // stack effect (empirical factor 0.2).
  const double stack_suppression = 0.2;
  const double leak_on_state = rpg_.leakage(vdd);
  const double leak_off_state =
      stack_suppression * std::min(rpg_.leakage(vdd), rpd_.leakage(vdd));
  return core_.leakage(vdd) + 0.5 * (leak_on_state + leak_off_state);
}

}  // namespace hynapse::circuit
