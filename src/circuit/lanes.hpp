// Lane-parallel Monte-Carlo queries on blocks of variation samples, 8
// samples at a time on AVX-512 and 4 on AVX2, with the device current
// evaluated lane for lane on glibc's libmvec exp/log/log1p. A lane takes
// the next sample of the block as soon as its current one is done. The
// lane current is not a copy of Mosfet::ids: it takes one log and one exp
// per device where the scalar takes two pows, multiplies by reciprocals
// where the scalar divides, and libmvec rounds differently from the
// scalar libm. So lane results drift from the scalar ones; every caller
// decides a sample only when its lane result clears a band far wider than
// that drift, and hands the rest to the exact scalar path. The band, not
// the formula, makes a lane verdict equal the scalar one, and
// tests/test_mc_decisions.cpp pins the drift on every tier: read currents
// within 1e-12 relative, and write verdicts exact at a 1e-12 band on
// samples 2e-12 vdd from the boundary (a write margin drift under 1e-12
// vdd).
//
// Write: the scalar write transient's Euler loop (bitcell.cpp), decided in
// the lane against kWriteLaneBand:
//  * pass as soon as Q - QB < -kWriteLaneBand * vdd;
//  * fail when (Q - QB)/vdd > kWriteLaneBand after Bitcell6T::kWriteSteps;
//  * anything still inside the band is left undecided.
// Both verdicts are final because the transient is monotone from
// (Q, QB) = (vdd, 0): Q never rises and QB never falls, so the margin never
// comes back once it has crossed (pinned by tests/test_mc_decisions.cpp).
//
// Read: the Newton node brackets of the read path (the 6T read bump, the
// 8T read node, a 6T trip point) and the read current at given node
// voltages. mc::FailureCriteria widens the brackets and decides against
// its read band (mc/criteria.hpp).
//
// The lanes run on util::isa_tier() (util/isa.hpp) where this build has
// them for it (HYNAPSE_SIMD_BACKEND on x86 with libmvec); on the scalar
// tier, or without libmvec, nothing runs on lanes and every sample takes
// the scalar path.
#pragma once

#include <cstddef>
#include <span>

#include "circuit/bitcell.hpp"
#include "circuit/solve.hpp"
#include "circuit/tech.hpp"
#include "util/isa.hpp"

namespace hynapse::circuit {

/// Half-width of the undecided write band on (Q - QB)/vdd.
inline constexpr double kWriteLaneBand = 1e-6;

/// A lane's verdict on one sample; undecided ones take the scalar path.
enum class LaneVerdict : signed char { undecided, pass, fail };

/// out[k] = the lanes' verdict on Bitcell6T{tech, sizing, cells[k]}
/// .write_fails(vdd, c_node, t_budget). Returns false, leaving out as it
/// is, when `tier` has no lanes here (the scalar tier, no libmvec, or a
/// tier this CPU does not run).
bool write_verdicts_lanes(const Technology& tech, const Sizing6T& sizing,
                          std::span<const Variation6T> cells, double vdd,
                          double c_node, double t_budget,
                          std::span<LaneVerdict> out,
                          util::IsaTier tier = util::isa_tier());

/// out[k] = a bracket no wider than tol holding, up to the lanes' drift,
/// the node that throttles the read current of cells[k]: read_bump(vdd) of
/// a 6T cell, read_node(vdd) of an 8T cell. The iterates are those of
/// read_bump_bracket / read_node_bracket; a bracket that has not closed
/// within the lanes' step limit is handed out wider. Returns false,
/// leaving out as it is, when `tier` has no lanes here.
bool read_node_brackets_lanes(const Technology& tech, const Sizing6T& sizing,
                              std::span<const Variation6T> cells, double vdd,
                              double tol, std::span<Bracket> out,
                              util::IsaTier tier = util::isa_tier());
bool read_node_brackets_lanes(const Technology& tech, const Sizing8T& sizing,
                              std::span<const Variation8T> cells, double vdd,
                              double tol, std::span<Bracket> out,
                              util::IsaTier tier = util::isa_tier());

/// Same for trip_bracket(side, vdd, tol) of 6T cells.
bool trip_brackets_lanes(const Technology& tech, const Sizing6T& sizing,
                         std::span<const Variation6T> cells, Side side,
                         double vdd, double tol, std::span<Bracket> out,
                         util::IsaTier tier = util::isa_tier());

/// out[k] = read_current_at(vdd, vn[k]) of cells[k], up to the lanes'
/// drift. Returns false, leaving out as it is, when `tier` has no lanes here.
bool read_currents_lanes(const Technology& tech, const Sizing6T& sizing,
                         std::span<const Variation6T> cells, double vdd,
                         std::span<const double> vn, std::span<double> out,
                         util::IsaTier tier = util::isa_tier());
bool read_currents_lanes(const Technology& tech, const Sizing8T& sizing,
                         std::span<const Variation8T> cells, double vdd,
                         std::span<const double> vn, std::span<double> out,
                         util::IsaTier tier = util::isa_tier());

}  // namespace hynapse::circuit
