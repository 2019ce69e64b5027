// The circuit-to-system chain of the paper (Sections IV-V), built in one
// place: a technology card, the reference 6T/8T sizings on it, the
// reference 256x256 sub-array and its cycle timing, and the Monte-Carlo
// variation sampler and failure criteria over them.
//
// The members point into one another -- CycleModel keeps pointers to
// `tech` and `array`, FailureCriteria to `tech` and `cycle` -- so a copied
// or moved stack would dangle. Copy and move are deleted; a stack lives
// where it is built.
#pragma once

#include "circuit/bitcell.hpp"
#include "circuit/tech.hpp"
#include "mc/criteria.hpp"
#include "mc/variation.hpp"
#include "sram/array.hpp"
#include "sram/timing.hpp"

namespace hynapse::mc {

struct CircuitStack {
  /// Builds the chain on `technology` (ptm22() by default; bench_corners
  /// passes each process corner).
  explicit CircuitStack(circuit::Technology technology = circuit::ptm22());
  CircuitStack(const CircuitStack&) = delete;
  CircuitStack& operator=(const CircuitStack&) = delete;

  circuit::Technology tech;
  circuit::Sizing6T sizing6;
  circuit::Sizing8T sizing8;
  sram::SubArrayModel array;
  sram::CycleModel cycle;
  VariationSampler sampler;
  FailureCriteria criteria;
};

}  // namespace hynapse::mc
