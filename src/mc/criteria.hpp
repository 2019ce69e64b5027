// Failure criteria for one bitcell sample (Section IV of the paper):
//  1. Read access failure: the cell cannot develop the sense differential
//     within the (voltage-scaled) read cycle.
//  2. Write failure: the cell cannot flip within the write cycle (or is
//     statically unwriteable at that corner).
//  3. Read disturb failure: the read bump flips the cell.
//
// Each criterion is a continuous limit-state metric (positive = fail), so
// the importance sampler can find the dominant failure direction in dVT
// space. The Monte-Carlo loops only need the metric's sign, which
// fails_6t/fails_8t return exactly -- fails == (metric > 0.0), bit for bit
// -- without the metric's fixed 60-step bisections:
//  * read access / read disturb: each node voltage is bracketed to
//    kBracketTol by safeguarded Newton (circuit/solve.hpp), widened by
//    kBracketSlack, and the metric, monotone in that voltage, is evaluated
//    at both ends. The sign is decided when the interval clears zero by
//    kDecideMargin; otherwise the metric_* oracle decides (and the
//    mc.decide.oracle_fallbacks counter is bumped).
//  * write: the same transient as the metric, stopped at the first
//    Q/QB crossing (Bitcell6T::write_fails).
// The metric_* values stay the oracle the IS gradient reads, so tables are
// bit-identical to deciding every sample with metric_* (docs/performance.md,
// "Monte-Carlo decision path").
#pragma once

#include "circuit/bitcell.hpp"
#include "circuit/tech.hpp"
#include "sram/timing.hpp"

namespace hynapse::obs {
class Counter;
}  // namespace hynapse::obs

namespace hynapse::mc {

enum class Mechanism { read_access, write, read_disturb };

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

  FailureCriteria(const circuit::Technology& tech,
                  const sram::CycleModel& cycle,
                  const circuit::Sizing6T& sizing6,
                  const circuit::Sizing8T& sizing8);

  // --- 6T metrics (positive = fail) --------------------------------------
  [[nodiscard]] double read_access_metric_6t(const circuit::Variation6T& var,
                                             double vdd) const;
  [[nodiscard]] double write_metric_6t(const circuit::Variation6T& var,
                                       double vdd) const;
  [[nodiscard]] double read_disturb_metric_6t(const circuit::Variation6T& var,
                                              double vdd) const;
  [[nodiscard]] double metric_6t(Mechanism m, const circuit::Variation6T& var,
                                 double vdd) const;

  /// Exactly metric_6t(m, var, vdd) > 0.0, decided from certified node
  /// brackets (see the header comment); the Monte-Carlo hit test.
  [[nodiscard]] bool fails_6t(Mechanism m, const circuit::Variation6T& var,
                              double vdd) const;

  /// Standby retention limit-state at a (possibly deeply scaled) hold
  /// voltage: positive = the cell loses its state (extension; see
  /// circuit/retention.hpp).
  [[nodiscard]] double hold_metric_6t(const circuit::Variation6T& var,
                                      double v_standby) const;

  // --- 8T metrics ----------------------------------------------------------
  [[nodiscard]] double read_access_metric_8t(const circuit::Variation8T& var,
                                             double vdd) const;
  [[nodiscard]] double write_metric_8t(const circuit::Variation8T& var,
                                       double vdd) const;
  [[nodiscard]] double metric_8t(Mechanism m, const circuit::Variation8T& var,
                                 double vdd) const;
  /// Exactly metric_8t(m, var, vdd) > 0.0.
  [[nodiscard]] bool fails_8t(Mechanism m, const circuit::Variation8T& var,
                              double vdd) const;

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
};

}  // namespace hynapse::mc
