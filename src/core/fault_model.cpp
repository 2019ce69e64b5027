#include "core/fault_model.hpp"

#include <algorithm>
#include <cmath>

namespace hynapse::core {

FaultModel::FaultModel(const mc::FailureTable& table, double vdd,
                       ReadFaultPolicy policy)
    : vdd_{vdd},
      policy_{policy},
      rates6_{table.rates_6t(vdd)},
      rates8_{table.rates_8t(vdd)} {}

double FaultModel::total_rate(bool is_8t) const noexcept {
  const mc::BitcellFailureRates& r = is_8t ? rates8_ : rates6_;
  // Mechanisms are treated as mutually exclusive alternatives for a given
  // cell; their rates are small enough that the sum is a faithful total.
  return std::min(1.0, r.total());
}

FaultMap FaultMap::sample(const BankConfig& bank, const FaultModel& model,
                          util::Rng& rng) {
  FaultMap map;
  map.resample(bank, model, rng);
  return map;
}

void FaultMap::resample(const BankConfig& bank, const FaultModel& model,
                        util::Rng& rng) {
  defects_.clear();
  // Reserve for the expected defect count (plus slack for sampling noise)
  // before drawing anything, so the push_back loop below almost never
  // reallocates mid-chip. Reserving consumes no RNG draws, so the sampled
  // stream is unchanged.
  const double expected =
      static_cast<double>(bank.bits_6t()) * model.total_rate(false) +
      static_cast<double>(bank.bits_8t()) * model.total_rate(true);
  defects_.reserve(static_cast<std::size_t>(expected * 1.25) + 16);
  for (int bit = 0; bit < bank.word_bits; ++bit) {
    const bool is_8t = bank.bit_is_8t(bit);
    const double p = model.total_rate(is_8t);
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      for (std::size_t w = 0; w < bank.words; ++w) {
        defects_.push_back(Defect{static_cast<std::uint32_t>(w),
                                  static_cast<std::uint8_t>(bit),
                                  model.pick_mechanism(is_8t, rng)});
      }
      continue;
    }
    // Geometric skip sampling: the gap to the next defective cell is
    // floor(ln(u)/ln(1-p)).
    const double log1mp = std::log1p(-p);
    double pos = 0.0;
    const auto n = static_cast<double>(bank.words);
    while (true) {
      const double u = std::max(rng.uniform(), 1e-300);
      pos += std::floor(std::log(u) / log1mp);
      if (pos >= n) break;
      defects_.push_back(Defect{static_cast<std::uint32_t>(pos),
                                static_cast<std::uint8_t>(bit),
                                model.pick_mechanism(is_8t, rng)});
      pos += 1.0;
    }
  }
}

std::size_t FaultMap::count(CellCondition c) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(defects_.begin(), defects_.end(),
                    [c](const Defect& d) { return d.condition == c; }));
}

}  // namespace hynapse::core
