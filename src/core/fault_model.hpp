// Bit-level fault model (Section V of the paper):
//  * process variation is static per die, so each cell has a fixed condition
//    sampled from the voltage-dependent Monte-Carlo failure rates;
//  * read-access and write failures are mutually exclusive per cell ("it was
//    additionally assumed that a 6T bitcell cannot simultaneously have read
//    access and write failures");
//  * the failure distribution follows the memory configuration: uniform over
//    all bits of a 6T bank, LSB-only for hybrid words (8T cells are failure-
//    free in the voltage range of interest).
#pragma once

#include <cstdint>
#include <vector>

#include "core/memory_config.hpp"
#include "mc/failure_table.hpp"
#include "util/rng.hpp"

namespace hynapse::core {

enum class CellCondition : std::uint8_t {
  ok = 0,
  read_weak,     ///< cannot develop the sense differential in time
  write_weak,    ///< cannot flip within the write cycle
  disturb_weak,  ///< flips when read
};

/// What a read from a read-weak cell returns.
enum class ReadFaultPolicy : std::uint8_t {
  /// Sense amp resolves randomly on every read (default; an access failure
  /// leaves the differential below the amp's offset).
  random_per_read,
  /// Sensed value is always the complement of the stored bit.
  always_flip,
  /// Sensed value is stuck at the cell's power-up state.
  stuck_at_powerup,
};

/// Failure probabilities per cell type at one operating voltage, with the
/// sampling rules above.
class FaultModel {
 public:
  FaultModel(const mc::FailureTable& table, double vdd,
             ReadFaultPolicy policy = ReadFaultPolicy::random_per_read);

  [[nodiscard]] double vdd() const noexcept { return vdd_; }
  [[nodiscard]] ReadFaultPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const mc::BitcellFailureRates& rates_6t() const noexcept {
    return rates6_;
  }
  [[nodiscard]] const mc::BitcellFailureRates& rates_8t() const noexcept {
    return rates8_;
  }

  /// Combined defect probability for one cell of the given type.
  [[nodiscard]] double total_rate(bool is_8t) const noexcept;

  /// Given that a cell is defective, picks the mechanism (mutually
  /// exclusive, probabilities proportional to the mechanism rates).
  [[nodiscard]] CellCondition pick_mechanism(bool is_8t,
                                             util::Rng& rng) const noexcept {
    const mc::BitcellFailureRates& r = is_8t ? rates8_ : rates6_;
    const double total = r.total();
    if (total <= 0.0) return CellCondition::ok;
    const double u = rng.uniform() * total;
    // read_weak below read_access, else write_weak below read_access +
    // write_fail, else disturb_weak: the cascade without its branches
    // (mechanisms come in random order, so the branches mispredict).
    const int past_read = !(u < r.read_access);
    const int past_write = past_read & !(u < r.read_access + r.write_fail);
    return static_cast<CellCondition>(
        static_cast<int>(CellCondition::read_weak) + past_read + past_write);
  }

 private:
  double vdd_;
  ReadFaultPolicy policy_;
  mc::BitcellFailureRates rates6_;
  mc::BitcellFailureRates rates8_;
};

/// One defective cell in a bank.
struct Defect {
  std::uint32_t word = 0;
  std::uint8_t bit = 0;
  CellCondition condition = CellCondition::ok;
};

/// Static per-chip defect map of one bank, sampled sparsely with geometric
/// skips (defect rates are small, so materializing per-cell states would
/// waste memory and RNG draws).
class FaultMap {
 public:
  [[nodiscard]] static FaultMap sample(const BankConfig& bank,
                                       const FaultModel& model,
                                       util::Rng& rng);

  /// In-place variant of sample() for the per-chip hot loop: identical
  /// defects and RNG draws, but the defect storage (and its capacity) is
  /// reused across chips, so steady-state resampling performs no heap
  /// allocation.
  void resample(const BankConfig& bank, const FaultModel& model,
                util::Rng& rng);

  /// Defects in sampling order: one run per bit position (ascending bit),
  /// each run in strictly ascending word order. EvalContext marks them in
  /// word bitmaps instead of sorting (core/delta_eval.cpp).
  [[nodiscard]] const std::vector<Defect>& defects() const noexcept {
    return defects_;
  }
  [[nodiscard]] std::size_t count(CellCondition c) const noexcept;

 private:
  std::vector<Defect> defects_;
};

}  // namespace hynapse::core
