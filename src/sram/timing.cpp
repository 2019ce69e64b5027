#include "sram/timing.hpp"

#include <cmath>
#include <stdexcept>

namespace hynapse::sram {

CycleModel::CycleModel(const circuit::Technology& tech,
                       const SubArrayModel& array,
                       const circuit::Bitcell6T& nominal_cell,
                       const TimingMargins& margins)
    : tech_{&tech}, array_{&array}, margins_{margins} {
  const double v0 = tech.vdd_nominal;
  t_read_nominal_ = cell_read_delay(nominal_cell, v0);
  // Nominal write time from the two-node transient: a coarse pass over a
  // generous window locates the flip, a second pass over a tight window
  // resolves it (the transient uses a fixed step count).
  const double coarse = nominal_cell.write_flip_time(
      v0, array.c_node(), 100.0 * t_read_nominal_);
  if (!std::isfinite(coarse))
    throw std::invalid_argument{
        "CycleModel: nominal cell is not writeable at nominal VDD"};
  t_write_nominal_ = nominal_cell.write_flip_time(
      v0, array.c_node(), std::max(4.0 * coarse, 1e-12));
  if (!std::isfinite(t_write_nominal_)) t_write_nominal_ = coarse;
}

double CycleModel::logic_delay_scale(double vdd) const {
  const circuit::TechCard& n = tech_->nmos;
  const auto stage_delay = [&](double v) {
    const double overdrive = v - n.vt0 + n.dibl * v;
    if (overdrive <= 0.0) return 1e9;  // logic dead below threshold
    return v / std::pow(overdrive, n.alpha);
  };
  return stage_delay(vdd) / stage_delay(tech_->vdd_nominal);
}

double CycleModel::dv_sense(double vdd) const {
  return margins_.dv_sense_floor + margins_.dv_sense_slope * vdd;
}

double CycleModel::read_delay(double i, double vdd) const {
  if (i <= 0.0) return 1e9;
  return array_->c_bitline() * dv_sense(vdd) / i;
}

double CycleModel::read_budget(double vdd) const {
  return margins_.read_margin * t_read_nominal_ * logic_delay_scale(vdd);
}

double CycleModel::write_budget(double vdd) const {
  return margins_.write_margin * t_write_nominal_ * logic_delay_scale(vdd);
}

double CycleModel::frequency(double vdd, double f_nominal) const {
  return f_nominal / logic_delay_scale(vdd);
}

}  // namespace hynapse::sram
