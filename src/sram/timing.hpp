// Voltage-scaled cycle-time model.
//
// The paper's premise: the digital logic (NPEs + controller) runs reliably at
// scaled VDD because the clock is slowed with it; the SRAM must then complete
// read/write inside that voltage-scaled cycle. The cycle budget therefore
// scales with *logic* delay (alpha-power model), while a variation-struck
// cell's own delay degrades faster -- that widening gap is exactly what makes
// 6T failure rates explode at low voltage.
#pragma once

#include "circuit/mosfet.hpp"
#include "circuit/tech.hpp"
#include "sram/array.hpp"

namespace hynapse::sram {

/// Design margins fixed at design time (nominal VDD) and carried across the
/// voltage sweep. Calibrated so the reference 6T array hits the paper's
/// system-level failure anchors (DESIGN.md section 4).
struct TimingMargins {
  double read_margin = 2.1;   ///< cycle budget / nominal cell read delay
  double write_margin = 5.0;  ///< write budget / nominal cell write delay
  double dv_sense_floor = 0.050;  ///< sense-amp differential floor [V]
  double dv_sense_slope = 0.055;  ///< VDD-proportional differential term
};

/// Computes per-voltage read/write time budgets for a given sub-array and
/// reference cell design.
class CycleModel {
 public:
  CycleModel(const circuit::Technology& tech, const SubArrayModel& array,
             const circuit::Bitcell6T& nominal_cell,
             const TimingMargins& margins = {});

  /// Logic-stage delay at vdd relative to nominal VDD (alpha-power law:
  /// d ~ VDD / (VDD - VT)^alpha with DIBL folded into the overdrive).
  [[nodiscard]] double logic_delay_scale(double vdd) const;

  /// Bitline differential required by the sense amplifier at vdd [V].
  [[nodiscard]] double dv_sense(double vdd) const;

  /// Time for a read current i [A] to develop dv_sense on the bitline [s]
  /// (1e9 for a cell that conducts nothing).
  [[nodiscard]] double read_delay(double i, double vdd) const;

  /// Read delay of a specific cell (6T or 8T): read_delay of its read
  /// current.
  template <typename Cell>
  [[nodiscard]] double cell_read_delay(const Cell& cell, double vdd) const {
    return read_delay(cell.read_current(vdd), vdd);
  }

  /// Cycle budgets at vdd (margins applied at nominal VDD, then scaled with
  /// logic delay) [s].
  [[nodiscard]] double read_budget(double vdd) const;
  [[nodiscard]] double write_budget(double vdd) const;

  /// System clock frequency at vdd given a nominal frequency [Hz].
  [[nodiscard]] double frequency(double vdd, double f_nominal) const;

  [[nodiscard]] double c_node() const noexcept { return array_->c_node(); }
  [[nodiscard]] const SubArrayModel& array() const noexcept { return *array_; }
  [[nodiscard]] const TimingMargins& margins() const noexcept {
    return margins_;
  }

 private:
  const circuit::Technology* tech_;
  const SubArrayModel* array_;
  TimingMargins margins_;
  double t_read_nominal_;   // nominal cell read delay at vdd_nominal
  double t_write_nominal_;  // nominal cell write delay at vdd_nominal
};

}  // namespace hynapse::sram
