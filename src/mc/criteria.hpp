// Failure criteria for one bitcell sample (Section IV of the paper):
//  1. Read access failure: the cell cannot develop the sense differential
//     within the (voltage-scaled) read cycle.
//  2. Write failure: the cell cannot flip within the write cycle (or is
//     statically unwriteable at that corner).
//  3. Read disturb failure: the read bump flips the cell.
//
// Each criterion is a continuous limit-state metric (positive = fail), so
// the importance sampler can find the dominant failure direction in dVT
// space. The 8T cell has no read disturb: its read port is decoupled from
// the storage nodes. kCellMechanisms is the one place that says which
// mechanisms each cell kind has and how each one's Monte-Carlo streams are
// seeded; the analyzer and FailureTable::build both walk it.
//
// The Monte-Carlo loops only need the metric's sign, which fails() returns
// exactly -- fails == (metric > 0.0), bit for bit -- without the metric's
// fixed 60-step bisections:
//  * read access / read disturb: each node voltage is bracketed to
//    kBracketTol by safeguarded Newton (circuit/solve.hpp), widened by
//    kBracketSlack, and the metric, monotone in that voltage, is evaluated
//    at both ends. The sign is decided when the interval clears zero by
//    kDecideMargin; otherwise metric() decides as the oracle (and the
//    mc.decide.oracle_fallbacks counter is bumped).
//  * write: the same transient as the metric, stopped at the first
//    Q/QB crossing (Bitcell6T::write_fails).
// fails_block decides a block of samples on the lanes (circuit/lanes.hpp):
// the write transient, or the read brackets and read currents, run 8 or 4
// samples at a time on libmvec. A read sample's lane brackets are widened
// and decided as above, but against kReadLaneBand, a band far wider than
// the lanes' drift from the scalar solves; the write lanes decide against
// their own band. Every sample a lane cannot certify goes to fails(); the
// mc.{write,read}.lane_decisions and .lane_fallbacks counters tell the two
// apart.
// metric() stays the oracle the IS gradient reads, so tables are
// bit-identical to deciding every sample with metric() (docs/performance.md,
// "Monte-Carlo decision path").
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "circuit/bitcell.hpp"
#include "circuit/lanes.hpp"
#include "circuit/tech.hpp"
#include "sram/timing.hpp"
#include "util/isa.hpp"

namespace hynapse::obs {
class Counter;
}  // namespace hynapse::obs

namespace hynapse::mc {

enum class Mechanism { read_access, write, read_disturb };
enum class CellKind { six_t, eight_t };

/// One (cell kind, mechanism) Monte-Carlo job of the per-cell analysis and
/// the offsets its plain-MC and importance-sampling seeds take from the
/// cell's base seed.
struct CellMechanism {
  CellKind cell;
  Mechanism mechanism;
  std::uint64_t mc_seed_offset;
  std::uint64_t is_seed_offset;
};

/// Every mechanism each cell kind has, in table-build slot order.
inline constexpr std::array<CellMechanism, 5> kCellMechanisms{{
    {CellKind::six_t, Mechanism::read_access, 0, 777},
    {CellKind::six_t, Mechanism::write, 101, 778},
    {CellKind::six_t, Mechanism::read_disturb, 202, 779},
    {CellKind::eight_t, Mechanism::read_access, 0, 555},
    {CellKind::eight_t, Mechanism::write, 131, 556},
}};

class FailureCriteria {
 public:
  /// Width the decision path brackets each node voltage to [V].
  static constexpr double kBracketTol = 1e-9;
  /// Widening of every bracket before the metric is evaluated at its ends
  /// [V]: absorbs the rounding noise of the residual near its root, which
  /// can place the bisection's answer a few ulps outside a strict bracket.
  static constexpr double kBracketSlack = 1e-12;
  /// The metric interval must clear zero by this much to decide a sample
  /// without the oracle (absorbs the metric's own rounding).
  static constexpr double kDecideMargin = 1e-12;
  /// The margin a read sample's metric interval must clear when its
  /// brackets and currents come from the lanes: far wider than the lanes'
  /// drift from the scalar solves (docs/performance.md, "Lane-parallel read
  /// verdicts").
  static constexpr double kReadLaneBand = 1e-6;

  FailureCriteria(const circuit::Technology& tech,
                  const sram::CycleModel& cycle,
                  const circuit::Sizing6T& sizing6,
                  const circuit::Sizing8T& sizing8);

  /// Limit-state metric of mechanism m for one cell sample (positive =
  /// fail). An 8T cell's read_disturb metric is -1: it has no such
  /// mechanism.
  [[nodiscard]] double metric(Mechanism m, const circuit::Variation6T& var,
                              double vdd) const;
  [[nodiscard]] double metric(Mechanism m, const circuit::Variation8T& var,
                              double vdd) const;

  /// Exactly metric(m, var, vdd) > 0.0, decided from certified node
  /// brackets (see the header comment); the Monte-Carlo hit test.
  [[nodiscard]] bool fails(Mechanism m, const circuit::Variation6T& var,
                           double vdd) const;
  [[nodiscard]] bool fails(Mechanism m, const circuit::Variation8T& var,
                           double vdd) const;

  /// out[k] = fails(m, cells[k], vdd) for every k, decided on the lanes of
  /// `tier` where they can certify it and by fails() otherwise. out.size()
  /// must equal cells.size().
  void fails_block(Mechanism m, std::span<const circuit::Variation6T> cells,
                   double vdd, std::span<bool> out,
                   util::IsaTier tier = util::isa_tier()) const;
  void fails_block(Mechanism m, std::span<const circuit::Variation8T> cells,
                   double vdd, std::span<bool> out,
                   util::IsaTier tier = util::isa_tier()) const;

  /// Standby retention limit-state at a (possibly deeply scaled) hold
  /// voltage: positive = the cell loses its state (extension; see
  /// circuit/retention.hpp).
  [[nodiscard]] double hold_metric_6t(const circuit::Variation6T& var,
                                      double v_standby) const;

  [[nodiscard]] const sram::CycleModel& cycle() const noexcept {
    return *cycle_;
  }
  [[nodiscard]] const circuit::Sizing6T& sizing6() const noexcept {
    return sizing6_;
  }
  [[nodiscard]] const circuit::Sizing8T& sizing8() const noexcept {
    return sizing8_;
  }

 private:
  const circuit::Technology* tech_;
  const sram::CycleModel* cycle_;
  circuit::Sizing6T sizing6_;
  circuit::Sizing8T sizing8_;
  obs::Counter* oracle_fallbacks_;  // mc.decide.oracle_fallbacks
  obs::Counter* write_lane_decisions_;  // mc.write.lane_decisions
  obs::Counter* write_lane_fallbacks_;  // mc.write.lane_fallbacks
  obs::Counter* read_lane_decisions_;   // mc.read.lane_decisions
  obs::Counter* read_lane_fallbacks_;   // mc.read.lane_fallbacks

  template <typename Cell>
  [[nodiscard]] double metric_of(Mechanism m, const Cell& cell,
                                 double vdd) const;
  template <typename Cell>
  [[nodiscard]] bool fails_of(Mechanism m, const Cell& cell,
                              double vdd) const;
  template <typename Var, typename Sizing>
  void fails_block_of(Mechanism m, std::span<const Var> cells,
                      const Sizing& sizing, double vdd, std::span<bool> out,
                      util::IsaTier tier) const;
};

}  // namespace hynapse::mc
