#include "mc/criteria.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace hynapse::mc {

FailureCriteria::FailureCriteria(const circuit::Technology& tech,
                                 const sram::CycleModel& cycle,
                                 const circuit::Sizing6T& sizing6,
                                 const circuit::Sizing8T& sizing8)
    : tech_{&tech},
      cycle_{&cycle},
      sizing6_{sizing6},
      sizing8_{sizing8},
      oracle_fallbacks_{
          &obs::Registry::global().counter("mc.decide.oracle_fallbacks")} {}

namespace {

/// Widens a node bracket by the slack, clamped to the rails.
circuit::Bracket widen(circuit::Bracket b, double vdd) {
  constexpr double slack = FailureCriteria::kBracketSlack;
  return {std::max(0.0, b.lo - slack), std::min(vdd, b.hi + slack)};
}

/// Sign of a metric known to lie in [lo, hi]: +1 fails, -1 passes, 0 when
/// the interval is too close to zero to tell.
int decide(double lo, double hi) {
  constexpr double margin = FailureCriteria::kDecideMargin;
  if (lo > margin) return 1;
  if (hi < -margin) return -1;
  return 0;
}

/// Read-access verdict from a bracket on the read node: the read current
/// falls as the node rises, so the metric rises with it.
template <typename Cell>
int decide_read_access(const sram::CycleModel& cycle, const Cell& cell,
                       double vdd, circuit::Bracket node) {
  const circuit::Bracket b = widen(node, vdd);
  const double budget = cycle.read_budget(vdd);
  const auto metric_at = [&](double vn) {
    return cycle.read_delay(cell.read_current_at(vdd, vn), vdd) / budget - 1.0;
  };
  return decide(metric_at(b.lo), metric_at(b.hi));
}

}  // namespace

double FailureCriteria::read_access_metric_6t(const circuit::Variation6T& var,
                                              double vdd) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  const double t = cycle_->cell_read_delay(cell, vdd);
  return t / cycle_->read_budget(vdd) - 1.0;
}

double FailureCriteria::write_metric_6t(const circuit::Variation6T& var,
                                        double vdd) const {
  // Two-node transient: positive residual means (Q - QB) never crossed
  // within the write budget, i.e. the write failed.
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  return cell.write_residual(vdd, cycle_->c_node(),
                             cycle_->write_budget(vdd));
}

double FailureCriteria::read_disturb_metric_6t(const circuit::Variation6T& var,
                                               double vdd) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  // Positive when the read bump exceeds the opposite trip point (in volts,
  // normalized by vdd to keep the metric scale-free).
  return (cell.read_bump(vdd) -
          cell.trip_voltage(circuit::Side::right, vdd)) /
         vdd;
}

double FailureCriteria::metric_6t(Mechanism m, const circuit::Variation6T& var,
                                  double vdd) const {
  switch (m) {
    case Mechanism::read_access:
      return read_access_metric_6t(var, vdd);
    case Mechanism::write:
      return write_metric_6t(var, vdd);
    case Mechanism::read_disturb:
      return read_disturb_metric_6t(var, vdd);
  }
  return 0.0;
}

bool FailureCriteria::fails_6t(Mechanism m, const circuit::Variation6T& var,
                               double vdd) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  int verdict = 0;
  switch (m) {
    case Mechanism::read_access:
      verdict = decide_read_access(*cycle_, cell, vdd,
                                   cell.read_bump_bracket(vdd, kBracketTol));
      break;
    case Mechanism::write:
      return cell.write_fails(vdd, cycle_->c_node(),
                              cycle_->write_budget(vdd));
    case Mechanism::read_disturb: {
      const circuit::Bracket bump =
          widen(cell.read_bump_bracket(vdd, kBracketTol), vdd);
      const circuit::Bracket trip = widen(
          cell.trip_bracket(circuit::Side::right, vdd, kBracketTol), vdd);
      verdict = decide((bump.lo - trip.hi) / vdd, (bump.hi - trip.lo) / vdd);
      break;
    }
  }
  if (verdict != 0) return verdict > 0;
  oracle_fallbacks_->add(1);
  return metric_6t(m, var, vdd) > 0.0;
}

double FailureCriteria::hold_metric_6t(const circuit::Variation6T& var,
                                       double v_standby) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  return cell.hold_residual(v_standby);
}

double FailureCriteria::read_access_metric_8t(const circuit::Variation8T& var,
                                              double vdd) const {
  const circuit::Bitcell8T cell{*tech_, sizing8_, var};
  const double t = cycle_->cell_read_delay_8t(cell, vdd);
  return t / cycle_->read_budget(vdd) - 1.0;
}

double FailureCriteria::write_metric_8t(const circuit::Variation8T& var,
                                        double vdd) const {
  const circuit::Bitcell8T cell{*tech_, sizing8_, var};
  return cell.write_residual(vdd, cycle_->c_node(),
                             cycle_->write_budget(vdd));
}

double FailureCriteria::metric_8t(Mechanism m, const circuit::Variation8T& var,
                                  double vdd) const {
  switch (m) {
    case Mechanism::read_access:
      return read_access_metric_8t(var, vdd);
    case Mechanism::write:
      return write_metric_8t(var, vdd);
    case Mechanism::read_disturb:
      return -1.0;  // decoupled read port: no disturb mechanism
  }
  return 0.0;
}

bool FailureCriteria::fails_8t(Mechanism m, const circuit::Variation8T& var,
                               double vdd) const {
  const circuit::Bitcell8T cell{*tech_, sizing8_, var};
  switch (m) {
    case Mechanism::read_access: {
      const int verdict = decide_read_access(
          *cycle_, cell, vdd, cell.read_node_bracket(vdd, kBracketTol));
      if (verdict != 0) return verdict > 0;
      break;
    }
    case Mechanism::write:
      return cell.write_fails(vdd, cycle_->c_node(),
                              cycle_->write_budget(vdd));
    case Mechanism::read_disturb:
      return false;  // decoupled read port: metric_8t is -1
  }
  oracle_fallbacks_->add(1);
  return metric_8t(m, var, vdd) > 0.0;
}

}  // namespace hynapse::mc
