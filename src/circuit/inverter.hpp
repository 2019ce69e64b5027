// CMOS inverter DC model: voltage-transfer characteristic and trip point.
// Building block of the SRAM bitcell cross-coupled pair.
#pragma once

#include "circuit/mosfet.hpp"
#include "circuit/solve.hpp"

namespace hynapse::circuit {

/// A static CMOS inverter evaluated at a given rail voltage. The pull-up is
/// a PMOS (terminal polarities mirrored internally), the pull-down an NMOS.
class Inverter {
 public:
  Inverter(Mosfet pull_up, Mosfet pull_down);

  /// DC output for input vin at rail vdd, optionally with an extra load
  /// current pulled *into* the output node from a source at v_load through
  /// `load` (models the SRAM access transistor during a read; pass nullptr
  /// for an unloaded inverter). Solved by bisection on the monotone KCL
  /// residual.
  [[nodiscard]] double output(double vin, double vdd,
                              const Mosfet* load = nullptr,
                              double v_load = 0.0) const;

  /// Input voltage where output == input (metastable point of the VTC).
  [[nodiscard]] double trip_voltage(double vdd) const;

  /// Bracket no wider than tol that holds trip_voltage(vdd), found by
  /// safeguarded Newton iteration on the same residual (solve.hpp).
  [[nodiscard]] Bracket trip_bracket(double vdd, double tol) const;

  /// Small-signal gain magnitude at the trip point (central difference).
  [[nodiscard]] double gain_at_trip(double vdd) const;

  [[nodiscard]] const Mosfet& pull_up() const noexcept { return pu_; }
  [[nodiscard]] const Mosfet& pull_down() const noexcept { return pd_; }

 private:
  Mosfet pu_;
  Mosfet pd_;
};

}  // namespace hynapse::circuit
