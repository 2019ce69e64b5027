// 6T and 8T SRAM bitcell DC models (Fig. 4 of the paper).
//
// The 6T cell: cross-coupled inverters (PU/PD per side) with NMOS pass gates
// (PG) to the bitline pair; read and write share the PG path, which is the
// root of its conflicting sizing requirements. The 8T cell adds a decoupled
// two-transistor read buffer (RPD driven by the internal node, RPG by the
// read wordline), so read stability equals hold stability and read/write can
// be optimized independently.
//
// Two API tiers:
//  * characterization-grade: read/hold SNM (Seevinck), BL-sweep write margin
//    — used for design calibration and the margin bench;
//  * Monte-Carlo-grade: read current, read bump voltage, static
//    writeability, write delay, leakage — closed-form/bisection-cheap, used
//    by the failure-analysis inner loop, plus Newton root brackets and an
//    early-exit write verdict for the failure decisions (mc/criteria.hpp).
#pragma once

#include <array>

#include "circuit/inverter.hpp"
#include "circuit/snm.hpp"
#include "circuit/tech.hpp"

namespace hynapse::circuit {

/// Transistor widths of a 6T cell in meters (length = Technology::lmin).
struct Sizing6T {
  double w_pg = 0.0;  ///< pass gate (access) width
  double w_pd = 0.0;  ///< pull-down width
  double w_pu = 0.0;  ///< pull-up width
};

/// Threshold-voltage deviations (the Monte-Carlo sample), one per transistor,
/// in volts. Left half drives node Q, right half node QB.
struct Variation6T {
  double pg_l = 0.0, pd_l = 0.0, pu_l = 0.0;
  double pg_r = 0.0, pd_r = 0.0, pu_r = 0.0;
};

/// Additional devices of the 8T cell read buffer.
struct Sizing8T {
  Sizing6T core;
  double w_rpg = 0.0;  ///< read access (RWL-gated) width
  double w_rpd = 0.0;  ///< read pull-down (node-gated) width
};

struct Variation8T {
  Variation6T core;
  double rpg = 0.0, rpd = 0.0;
};

/// Identifies a half-cell for asymmetric queries.
enum class Side { left, right };

class Bitcell6T {
 public:
  Bitcell6T(const Technology& tech, const Sizing6T& sizing,
            const Variation6T& var = {});

  // --- characterization tier ----------------------------------------------

  /// Read static noise margin [V]: butterfly of the two half-cell VTCs with
  /// pass gates conducting to bitlines precharged at vdd (WL high).
  [[nodiscard]] double read_snm(double vdd, int grid = 400) const;

  /// Hold (standby) static noise margin [V]: WL low, unloaded butterfly.
  [[nodiscard]] double hold_snm(double vdd, int grid = 400) const;

  /// BL-sweep write margin [V]: with (Q,QB) = (1,0) and WL high, the left
  /// bitline is lowered from vdd; the write margin is the highest BL voltage
  /// at which the cell flips. Larger = easier write. Returns 0 if the cell
  /// cannot be written even with BL at 0 V.
  [[nodiscard]] double write_margin(double vdd) const;

  // --- Monte-Carlo tier ----------------------------------------------------

  /// Cell read current [A]: series PG+PD on the side storing '0' (left),
  /// discharging a bitline precharged at vdd.
  [[nodiscard]] double read_current(double vdd) const;

  /// Read current [A] with the internal '0' node at vn (read_current is
  /// read_current_at(vdd, read_bump(vdd))). Falls as vn rises.
  [[nodiscard]] double read_current_at(double vdd, double vn) const;

  /// Voltage the internal '0' node is disturbed to during a read [V].
  [[nodiscard]] double read_bump(double vdd) const;

  /// Bracket no wider than tol that holds read_bump(vdd) (Newton on the
  /// same KCL residual; clamps exactly where the bisection does).
  [[nodiscard]] Bracket read_bump_bracket(double vdd, double tol) const;

  /// Static read-disturb criterion: the read bump exceeds the opposite
  /// inverter's trip point, flipping the cell during a read.
  [[nodiscard]] bool read_disturb_fails(double vdd) const;

  /// DC level the pass gate pulls the '1' node down to during a write with
  /// BL at 0 V and the opposing pull-up fully on [V].
  [[nodiscard]] double write_zero_level(double vdd) const;

  /// Static write failure: even at DC the '1' node cannot be pulled below
  /// the opposite inverter's trip point.
  [[nodiscard]] bool static_write_fails(double vdd) const;

  /// Time to pull the '1' node from vdd to the opposite trip point [s],
  /// integrating c_node * dV / (I_pg - I_pu). +inf when statically
  /// unwriteable. Conservative single-node estimate (ignores the BLB-side
  /// assist); the Monte-Carlo criterion uses the two-node transient below.
  [[nodiscard]] double write_delay(double vdd, double c_node) const;

  /// Euler steps of the write transient over a write budget.
  static constexpr int kWriteSteps = 120;

  /// Two-node write transient: explicit-Euler integration of both storage
  /// nodes from (Q,QB) = (vdd,0) with BL = 0, BLB = vdd, WL = vdd, in
  /// 2 * kWriteSteps steps over t_max. Returns the time at which Q falls
  /// below QB (the regenerative crossover), or +inf if the cell has not
  /// flipped within t_max [s]. The write queries below run the same loop.
  [[nodiscard]] double write_flip_time(double vdd, double c_node,
                                       double t_max) const;

  /// Continuous write limit-state: (Q - QB)/vdd after kWriteSteps steps
  /// over the write budget. Positive = write failed. Used by the importance
  /// sampler.
  [[nodiscard]] double write_residual(double vdd, double c_node,
                                      double t_budget) const;

  /// Exactly write_residual(vdd, c_node, t_budget) > 0, decided early: the
  /// same transient stops at the first step where q < qb - 1e-9 * vdd.
  /// Sound because from (vdd, 0) the competitive pair never raises q nor
  /// lowers qb under the non-overshooting Euler step, so a crossing is
  /// final (pinned by tests/test_mc_decisions.cpp).
  [[nodiscard]] bool write_fails(double vdd, double c_node,
                                 double t_budget) const;

  /// Standby leakage current [A] with WL low and bitlines precharged at vdd
  /// (state-independent by symmetry of the leak paths).
  [[nodiscard]] double leakage(double vdd) const;

  /// Standby bistability: relaxes the unloaded cross-coupled pair from the
  /// (Q,QB) = (vdd,0) corner by damped fixed-point iteration and reports
  /// whether the state survives. Used by the data-retention analysis.
  [[nodiscard]] bool holds_state(double vdd) const;

  /// Continuous retention limit-state: (QB - Q)/vdd after relaxation;
  /// positive = the stored '1' was lost at this standby voltage.
  [[nodiscard]] double hold_residual(double vdd) const;

  /// Trip voltage of one half-cell inverter.
  [[nodiscard]] double trip_voltage(Side side, double vdd) const;
  [[nodiscard]] Bracket trip_bracket(Side side, double vdd, double tol) const;

  /// Unloaded or read-loaded half-cell VTC (exposed for the margin bench).
  [[nodiscard]] double vtc(Side side, double vin, double vdd,
                           bool read_loaded) const;

  [[nodiscard]] const Sizing6T& sizing() const noexcept { return sizing_; }
  [[nodiscard]] const Technology& tech() const noexcept { return *tech_; }

 private:
  const Technology* tech_;
  Sizing6T sizing_;
  Inverter inv_l_;
  Inverter inv_r_;
  Mosfet pg_l_;
  Mosfet pg_r_;
};

class Bitcell8T {
 public:
  Bitcell8T(const Technology& tech, const Sizing8T& sizing,
            const Variation8T& var = {});

  /// Write-path and hold behaviour delegate to the (write-optimized) core.
  [[nodiscard]] const Bitcell6T& core() const noexcept { return core_; }

  /// Read SNM equals hold SNM: the read port is decoupled from the storage
  /// nodes, so a read cannot degrade stability (paper Section IV, [21]).
  [[nodiscard]] double read_snm(double vdd, int grid = 400) const;
  [[nodiscard]] double hold_snm(double vdd, int grid = 400) const;
  [[nodiscard]] double write_margin(double vdd) const;

  /// Read-buffer current [A]: series RPG+RPD with both gates at vdd,
  /// discharging the read bitline.
  [[nodiscard]] double read_current(double vdd) const;
  /// Read-buffer current with the RPG/RPD node at vn; falls as vn rises.
  [[nodiscard]] double read_current_at(double vdd, double vn) const;

  /// Voltage of the node between RPG and RPD during a read [V], and a
  /// bracket no wider than tol that holds it.
  [[nodiscard]] double read_node(double vdd) const;
  [[nodiscard]] Bracket read_node_bracket(double vdd, double tol) const;

  /// An 8T cell has no read-disturb mechanism.
  [[nodiscard]] static constexpr bool read_disturb_fails(double) noexcept {
    return false;
  }

  [[nodiscard]] bool static_write_fails(double vdd) const;
  [[nodiscard]] double write_delay(double vdd, double c_node) const;
  [[nodiscard]] double write_flip_time(double vdd, double c_node,
                                       double t_max) const;
  [[nodiscard]] double write_residual(double vdd, double c_node,
                                      double t_budget) const;
  [[nodiscard]] bool write_fails(double vdd, double c_node,
                                 double t_budget) const;

  /// Standby leakage including the read-buffer stack, averaged over the two
  /// stored states [A].
  [[nodiscard]] double leakage(double vdd) const;

  [[nodiscard]] const Sizing8T& sizing() const noexcept { return sizing_; }

 private:
  const Technology* tech_;
  Sizing8T sizing_;
  Bitcell6T core_;
  Mosfet rpg_;
  Mosfet rpd_;
};

}  // namespace hynapse::circuit
