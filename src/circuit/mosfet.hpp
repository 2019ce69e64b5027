// Analytical MOSFET model: Sakurai-Newton alpha-power law unified with
// subthreshold conduction through an EKV-style smoothed effective overdrive,
// plus DIBL. Replaces the paper's HSPICE/PTM device evaluation.
//
// Conventions: NMOS source-referenced voltages; vgs and vds are handed in as
// non-negative magnitudes for PMOS as well (the caller mirrors polarities, as
// the Inverter and Bitcell classes do).
#pragma once

#include "circuit/tech.hpp"

namespace hynapse::circuit {

/// One transistor instance: a technology card, a W/L geometry, and a local
/// threshold-voltage deviation (the Monte-Carlo sample).
class Mosfet {
 public:
  /// Throws std::invalid_argument for non-positive geometry.
  Mosfet(const TechCard& card, double w, double l, double delta_vt = 0.0);

  /// Drain current [A] for source-referenced gate/drain voltages [V].
  /// Continuous and strictly increasing in vgs; non-decreasing in vds.
  /// Negative vds is clamped to zero (the callers orient terminals).
  [[nodiscard]] double ids(double vgs, double vds) const noexcept;

  /// Same current, bit for bit, plus its partial derivatives d_vgs =
  /// d(ids)/d(vgs) and d_vds = d(ids)/d(vds) [A/V] (zero in the clamped
  /// vds < 0 region). Feeds the Newton root brackets of the bitcell solves.
  [[nodiscard]] double ids(double vgs, double vds, double& d_vgs,
                           double& d_vds) const noexcept;

  /// Subthreshold leakage at vgs = 0 for the given rail voltage [A].
  [[nodiscard]] double leakage(double vdd) const noexcept;

  /// Pelgrom sigma of this device's VT given the technology minimum geometry
  /// (Eq. 1 of the paper): sigma = sigma_vt0 * sqrt((Lmin/L)(Wmin/W)).
  [[nodiscard]] double sigma_vt(double wmin, double lmin) const noexcept;

  [[nodiscard]] double w() const noexcept { return w_; }
  [[nodiscard]] double l() const noexcept { return l_; }
  [[nodiscard]] double delta_vt() const noexcept { return delta_vt_; }
  [[nodiscard]] const TechCard& card() const noexcept { return *card_; }

  /// Returns a copy with a different VT deviation (hot path of the MC loop).
  [[nodiscard]] Mosfet with_delta_vt(double delta_vt) const;

 private:
  const TechCard* card_;
  double w_;
  double l_;
  double delta_vt_;
  double w_over_l_;
};

}  // namespace hynapse::circuit
