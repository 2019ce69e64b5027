#include "mc/criteria.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "circuit/lanes.hpp"
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
      write_lane_decisions_{
          &obs::Registry::global().counter("mc.write.lane_decisions")},
      write_lane_fallbacks_{
          &obs::Registry::global().counter("mc.write.lane_fallbacks")},
      read_lane_decisions_{
          &obs::Registry::global().counter("mc.read.lane_decisions")},
      read_lane_fallbacks_{
          &obs::Registry::global().counter("mc.read.lane_fallbacks")} {}

namespace {

/// Widens a node bracket by the slack, clamped to the rails.
circuit::Bracket widen(circuit::Bracket b, double vdd) {
  constexpr double slack = FailureCriteria::kBracketSlack;
  return {std::max(0.0, b.lo - slack), std::min(vdd, b.hi + slack)};
}

/// Sign of a metric known to lie in [lo, hi]: +1 fails, -1 passes, 0 when
/// the interval is within `margin` of zero.
int decide(double lo, double hi, double margin) {
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

/// The read-access metric at read current i.
double read_access_metric(const sram::CycleModel& cycle, double i,
                          double vdd, double budget) {
  return cycle.read_delay(i, vdd) / budget - 1.0;
}

/// Read-access verdict from a bracket on the read node: the read current
/// falls as the node rises, so the metric rises with it.
template <typename Cell>
int decide_read_access(const sram::CycleModel& cycle, const Cell& cell,
                       double vdd) {
  const circuit::Bracket b = widen(read_node_bracket(cell, vdd), vdd);
  const double budget = cycle.read_budget(vdd);
  const auto metric_at = [&](double vn) {
    return read_access_metric(cycle, cell.read_current_at(vdd, vn), vdd,
                              budget);
  };
  return decide(metric_at(b.lo), metric_at(b.hi),
                FailureCriteria::kDecideMargin);
}

/// Positive when the read bump exceeds the opposite trip point (in volts,
/// normalized by vdd to keep the metric scale-free).
double read_disturb_metric(const circuit::Bitcell6T& cell, double vdd) {
  return (cell.read_bump(vdd) -
          cell.trip_voltage(circuit::Side::right, vdd)) /
         vdd;
}

/// Read-disturb verdict from brackets on the read bump and on the right
/// trip point.
int decide_read_disturb(circuit::Bracket bump, circuit::Bracket trip,
                        double vdd, double margin) {
  bump = widen(bump, vdd);
  trip = widen(trip, vdd);
  return decide((bump.lo - trip.hi) / vdd, (bump.hi - trip.lo) / vdd, margin);
}

int decide_read_disturb(const circuit::Bitcell6T& cell, double vdd) {
  constexpr double tol = FailureCriteria::kBracketTol;
  return decide_read_disturb(
      cell.read_bump_bracket(vdd, tol),
      cell.trip_bracket(circuit::Side::right, vdd, tol), vdd,
      FailureCriteria::kDecideMargin);
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

/// Samples one lane call decides at most.
constexpr std::size_t kLaneBlock = 256;

circuit::LaneVerdict lane_verdict(int decision) {
  if (decision > 0) return circuit::LaneVerdict::fail;
  if (decision < 0) return circuit::LaneVerdict::pass;
  return circuit::LaneVerdict::undecided;
}

/// The lanes' verdicts on a block of write samples (an 8T cell writes
/// through its 6T core). False where `tier` has no lanes.
bool write_lanes(const circuit::Technology& tech,
                 const sram::CycleModel& cycle,
                 const circuit::Sizing6T& sizing,
                 std::span<const circuit::Variation6T> cells, double vdd,
                 util::IsaTier tier, std::span<circuit::LaneVerdict> out) {
  return circuit::write_verdicts_lanes(tech, sizing, cells, vdd,
                                       cycle.c_node(), cycle.write_budget(vdd),
                                       out, tier);
}
bool write_lanes(const circuit::Technology& tech,
                 const sram::CycleModel& cycle,
                 const circuit::Sizing8T& sizing,
                 std::span<const circuit::Variation8T> cells, double vdd,
                 util::IsaTier tier, std::span<circuit::LaneVerdict> out) {
  std::array<circuit::Variation6T, kLaneBlock> cores;
  for (std::size_t k = 0; k < cells.size(); ++k) cores[k] = cells[k].core;
  return write_lanes(tech, cycle, sizing.core,
                     std::span{cores.data(), cells.size()}, vdd, tier, out);
}

/// The lanes' verdicts on a block of read-access samples: the read node
/// bracketed and the read current taken at both widened ends on the lanes,
/// then decided like decide_read_access against the read band.
template <typename Sizing, typename Var>
bool read_access_lanes(const circuit::Technology& tech,
                       const sram::CycleModel& cycle, const Sizing& sizing,
                       std::span<const Var> cells, double vdd,
                       util::IsaTier tier,
                       std::span<circuit::LaneVerdict> out) {
  const std::size_t n = cells.size();
  std::array<circuit::Bracket, kLaneBlock> node;
  if (!circuit::read_node_brackets_lanes(tech, sizing, cells, vdd,
                                         FailureCriteria::kBracketTol,
                                         std::span{node.data(), n}, tier)) {
    return false;
  }
  std::array<double, kLaneBlock> lo, hi, i_lo, i_hi;
  for (std::size_t k = 0; k < n; ++k) {
    const circuit::Bracket b = widen(node[k], vdd);
    lo[k] = b.lo;
    hi[k] = b.hi;
  }
  circuit::read_currents_lanes(tech, sizing, cells, vdd,
                               std::span{lo.data(), n},
                               std::span{i_lo.data(), n}, tier);
  circuit::read_currents_lanes(tech, sizing, cells, vdd,
                               std::span{hi.data(), n},
                               std::span{i_hi.data(), n}, tier);
  const double budget = cycle.read_budget(vdd);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = lane_verdict(
        decide(read_access_metric(cycle, i_lo[k], vdd, budget),
               read_access_metric(cycle, i_hi[k], vdd, budget),
               FailureCriteria::kReadLaneBand));
  }
  return true;
}

/// The lanes' verdicts on a block of 6T read-disturb samples: both brackets
/// on the lanes, decided like decide_read_disturb against the read band.
bool read_disturb_lanes(const circuit::Technology& tech,
                        const circuit::Sizing6T& sizing,
                        std::span<const circuit::Variation6T> cells,
                        double vdd, util::IsaTier tier,
                        std::span<circuit::LaneVerdict> out) {
  constexpr double tol = FailureCriteria::kBracketTol;
  const std::size_t n = cells.size();
  std::array<circuit::Bracket, kLaneBlock> bump, trip;
  if (!circuit::read_node_brackets_lanes(tech, sizing, cells, vdd, tol,
                                         std::span{bump.data(), n}, tier)) {
    return false;
  }
  circuit::trip_brackets_lanes(tech, sizing, cells, circuit::Side::right, vdd,
                               tol, std::span{trip.data(), n}, tier);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = lane_verdict(decide_read_disturb(bump[k], trip[k], vdd,
                                              FailureCriteria::kReadLaneBand));
  }
  return true;
}
// An 8T cell has no read-disturb mechanism: fails() answers at once.
bool read_disturb_lanes(const circuit::Technology&, const circuit::Sizing8T&,
                        std::span<const circuit::Variation8T>, double,
                        util::IsaTier, std::span<circuit::LaneVerdict>) {
  return false;
}

}  // namespace

template <typename Var, typename Sizing>
void FailureCriteria::fails_block_of(Mechanism m, std::span<const Var> cells,
                                     const Sizing& sizing, double vdd,
                                     std::span<bool> out,
                                     util::IsaTier tier) const {
  const bool write = m == Mechanism::write;
  obs::Counter& decisions =
      write ? *write_lane_decisions_ : *read_lane_decisions_;
  obs::Counter& fallbacks =
      write ? *write_lane_fallbacks_ : *read_lane_fallbacks_;
  std::array<circuit::LaneVerdict, kLaneBlock> verdict;
  for (std::size_t begin = 0; begin < cells.size(); begin += kLaneBlock) {
    const std::size_t n = std::min(kLaneBlock, cells.size() - begin);
    const std::span<const Var> block = cells.subspan(begin, n);
    const std::span<circuit::LaneVerdict> lanes{verdict.data(), n};
    bool on_lanes = false;
    switch (m) {
      case Mechanism::write:
        on_lanes =
            write_lanes(*tech_, *cycle_, sizing, block, vdd, tier, lanes);
        break;
      case Mechanism::read_access:
        on_lanes = read_access_lanes(*tech_, *cycle_, sizing, block, vdd, tier,
                                     lanes);
        break;
      case Mechanism::read_disturb:
        on_lanes = read_disturb_lanes(*tech_, sizing, block, vdd, tier, lanes);
        break;
    }
    // Samples the lanes left undecided take the exact scalar path.
    std::size_t undecided = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (on_lanes && verdict[k] != circuit::LaneVerdict::undecided) {
        out[begin + k] = verdict[k] == circuit::LaneVerdict::fail;
      } else {
        out[begin + k] = fails(m, block[k], vdd);
        ++undecided;
      }
    }
    if (on_lanes) {
      decisions.add(n - undecided);
      fallbacks.add(undecided);
    }
  }
}

void FailureCriteria::fails_block(Mechanism m,
                                  std::span<const circuit::Variation6T> cells,
                                  double vdd, std::span<bool> out,
                                  util::IsaTier tier) const {
  fails_block_of(m, cells, sizing6_, vdd, out, tier);
}

void FailureCriteria::fails_block(Mechanism m,
                                  std::span<const circuit::Variation8T> cells,
                                  double vdd, std::span<bool> out,
                                  util::IsaTier tier) const {
  fails_block_of(m, cells, sizing8_, vdd, out, tier);
}

double FailureCriteria::hold_metric_6t(const circuit::Variation6T& var,
                                       double v_standby) const {
  const circuit::Bitcell6T cell{*tech_, sizing6_, var};
  return cell.hold_residual(v_standby);
}

}  // namespace hynapse::mc
