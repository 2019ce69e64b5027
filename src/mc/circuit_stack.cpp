#include "mc/circuit_stack.hpp"

#include "circuit/reference.hpp"

namespace hynapse::mc {

CircuitStack::CircuitStack(circuit::Technology technology)
    : tech{technology},
      sizing6{circuit::reference_sizing_6t(tech)},
      sizing8{circuit::reference_sizing_8t(tech)},
      array{tech, sram::SubArrayGeometry{}, sizing6},
      cycle{tech, array, circuit::Bitcell6T{tech, sizing6}},
      sampler{tech, sizing6, sizing8},
      criteria{tech, cycle, sizing6, sizing8} {}

}  // namespace hynapse::mc
