#include "mc/criteria.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "circuit/write_lanes.hpp"
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
          &obs::Registry::global().counter("mc.decide.oracle_fallbacks")},
      lane_decisions_{
          &obs::Registry::global().counter("mc.write.lane_decisions")},
      lane_fallbacks_{
          &obs::Registry::global().counter("mc.write.lane_fallbacks")} {}

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

/// Bracket on the node that throttles the read current: the 6T read bump,
/// the 8T read-buffer node.
circuit::Bracket read_node_bracket(const circuit::Bitcell6T& cell,
                                   double vdd) {
  return cell.read_bump_bracket(vdd, FailureCriteria::kBracketTol);
}
circuit::Bracket read_node_bracket(const circuit::Bitcell8T& cell,
                                   double vdd) {
  return cell.read_node_bracket(vdd, FailureCriteria::kBracketTol);
}

/// Read-access verdict from a bracket on the read node: the read current
/// falls as the node rises, so the metric rises with it.
template <typename Cell>
int decide_read_access(const sram::CycleModel& cycle, const Cell& cell,
                       double vdd) {
  const circuit::Bracket b = widen(read_node_bracket(cell, vdd), vdd);
  const double budget = cycle.read_budget(vdd);
  const auto metric_at = [&](double vn) {
    return cycle.read_delay(cell.read_current_at(vdd, vn), vdd) / budget - 1.0;
  };
  return decide(metric_at(b.lo), metric_at(b.hi));
}

/// Positive when the read bump exceeds the opposite trip point (in volts,
/// normalized by vdd to keep the metric scale-free).
double read_disturb_metric(const circuit::Bitcell6T& cell, double vdd) {
  return (cell.read_bump(vdd) -
          cell.trip_voltage(circuit::Side::right, vdd)) /
         vdd;
}

int decide_read_disturb(const circuit::Bitcell6T& cell, double vdd) {
  constexpr double tol = FailureCriteria::kBracketTol;
  const circuit::Bracket bump = widen(cell.read_bump_bracket(vdd, tol), vdd);
  const circuit::Bracket trip =
      widen(cell.trip_bracket(circuit::Side::right, vdd, tol), vdd);
  return decide((bump.lo - trip.hi) / vdd, (bump.hi - trip.lo) / vdd);
}

// Decoupled read port: an 8T cell has no read-disturb mechanism.
double read_disturb_metric(const circuit::Bitcell8T&, double) { return -1.0; }
int decide_read_disturb(const circuit::Bitcell8T&, double) { return -1; }

}  // namespace

template <typename Cell>
double FailureCriteria::metric_of(Mechanism m, const Cell& cell,
                                  double vdd) const {
  switch (m) {
    case Mechanism::read_access:
      return cycle_->cell_read_delay(cell, vdd) / cycle_->read_budget(vdd) -
             1.0;
    case Mechanism::write:
      // Two-node transient: positive residual means (Q - QB) never crossed
      // within the write budget, i.e. the write failed.
      return cell.write_residual(vdd, cycle_->c_node(),
                                 cycle_->write_budget(vdd));
    case Mechanism::read_disturb:
      return read_disturb_metric(cell, vdd);
  }
  return 0.0;
}

template <typename Cell>
bool FailureCriteria::fails_of(Mechanism m, const Cell& cell,
                               double vdd) const {
  int verdict = 0;
  switch (m) {
    case Mechanism::read_access:
      verdict = decide_read_access(*cycle_, cell, vdd);
      break;
    case Mechanism::write:
      return cell.write_fails(vdd, cycle_->c_node(),
                              cycle_->write_budget(vdd));
    case Mechanism::read_disturb:
      verdict = decide_read_disturb(cell, vdd);
      break;
  }
  if (verdict != 0) return verdict > 0;
  oracle_fallbacks_->add(1);
  return metric_of(m, cell, vdd) > 0.0;
}

double FailureCriteria::metric(Mechanism m, const circuit::Variation6T& var,
                               double vdd) const {
  return metric_of(m, circuit::Bitcell6T{*tech_, sizing6_, var}, vdd);
}

double FailureCriteria::metric(Mechanism m, const circuit::Variation8T& var,
                               double vdd) const {
  return metric_of(m, circuit::Bitcell8T{*tech_, sizing8_, var}, vdd);
}

bool FailureCriteria::fails(Mechanism m, const circuit::Variation6T& var,
                            double vdd) const {
  return fails_of(m, circuit::Bitcell6T{*tech_, sizing6_, var}, vdd);
}

bool FailureCriteria::fails(Mechanism m, const circuit::Variation8T& var,
                            double vdd) const {
  return fails_of(m, circuit::Bitcell8T{*tech_, sizing8_, var}, vdd);
}

namespace {

/// The 6T cell a write acts on: an 8T cell writes through its core.
const circuit::Variation6T& write_core(const circuit::Variation6T& var) {
  return var;
}
const circuit::Variation6T& write_core(const circuit::Variation8T& var) {
  return var.core;
}

}  // namespace

template <typename Var>
void FailureCriteria::fails_block_of(Mechanism m, std::span<const Var> cells,
                                     const circuit::Sizing6T& core_sizing,
                                     double vdd, std::span<bool> out) const {
  if (m != Mechanism::write) {
    for (std::size_t k = 0; k < cells.size(); ++k) {
      out[k] = fails(m, cells[k], vdd);
    }
    return;
  }
  std::array<circuit::Variation6T, 256> cores;
  for (std::size_t begin = 0; begin < cells.size(); begin += cores.size()) {
    const std::size_t n = std::min(cores.size(), cells.size() - begin);
    for (std::size_t k = 0; k < n; ++k) cores[k] = write_core(cells[begin + k]);
    const circuit::WriteLaneCount count = circuit::write_fails_lanes(
        *tech_, core_sizing, std::span{cores.data(), n}, vdd,
        cycle_->c_node(), cycle_->write_budget(vdd), out.subspan(begin, n));
    lane_decisions_->add(count.lane_decisions);
    lane_fallbacks_->add(count.fallbacks);
  }
}

void FailureCriteria::fails_block(Mechanism m,
                                  std::span<const circuit::Variation6T> cells,
                                  double vdd, std::span<bool> out) const {
  fails_block_of(m, cells, sizing6_, vdd, out);
}

void FailureCriteria::fails_block(Mechanism m,
                                  std::span<const circuit::Variation8T> cells,
                                  double vdd, std::span<bool> out) const {
  fails_block_of(m, cells, sizing8_.core, vdd, out);
}

double FailureCriteria::hold_metric_6t(const circuit::Variation6T& var,
                                       double v_standby) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  return cell.hold_residual(v_standby);
}

}  // namespace hynapse::mc
