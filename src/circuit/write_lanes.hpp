// Lane-parallel write verdicts: Bitcell6T::write_fails for a block of
// variation samples, 8 samples at a time on AVX-512 and 4 on AVX2.
//
// Each lane runs the scalar write transient's Euler loop (bitcell.cpp) on
// one sample, with Mosfet::ids evaluated lane for lane on glibc's libmvec
// exp/log1p/pow; a lane whose sample is decided takes the next sample of the
// block at once. libmvec rounds differently from the scalar libm, so the
// lanes drift from the scalar node voltages by ~1e-14 vdd, and a lane is
// decided only when its Q - QB margin clears a band far wider than that:
//  * pass as soon as Q - QB < -kWriteLaneBand * vdd;
//  * fail when (Q - QB)/vdd > kWriteLaneBand after Bitcell6T::kWriteSteps;
//  * anything still inside the band goes to the exact scalar write_fails.
// Both verdicts are final because the transient is monotone from
// (Q, QB) = (vdd, 0): Q never rises and QB never falls, so the margin never
// comes back once it has crossed (pinned by tests/test_mc_decisions.cpp).
// The verdicts therefore equal write_fails bit for bit on every tier.
//
// The tier is chosen at runtime from cpuid among the tiers this build has
// (HYNAPSE_SIMD_BACKEND on x86 with libmvec); the scalar tier is the oracle
// and the fallback everywhere else.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "circuit/bitcell.hpp"
#include "circuit/tech.hpp"

namespace hynapse::circuit {

enum class WriteLaneTier { scalar, avx2, avx512 };

/// Half-width of the undecided band on (Q - QB)/vdd.
inline constexpr double kWriteLaneBand = 1e-6;

/// The widest tier this build has and this CPU runs.
[[nodiscard]] WriteLaneTier write_lane_tier() noexcept;
/// Every tier this build has and this CPU runs, scalar first.
[[nodiscard]] std::vector<WriteLaneTier> available_write_lane_tiers();
/// "scalar" / "avx2" / "avx512".
[[nodiscard]] std::string_view write_lane_tier_name(
    WriteLaneTier tier) noexcept;

/// How a block's verdicts were reached: by a lane, or by the scalar
/// write_fails after the lane's margin ended inside the band. Both stay 0
/// on the scalar tier, which decides every sample with write_fails.
struct WriteLaneCount {
  std::size_t lane_decisions = 0;
  std::size_t fallbacks = 0;
};

/// fails[k] = Bitcell6T{tech, sizing, cells[k]}.write_fails(vdd, c_node,
/// t_budget) for every k, decided on `tier` (the scalar tier when that tier
/// is not available). fails.size() must equal cells.size().
WriteLaneCount write_fails_lanes(const Technology& tech,
                                 const Sizing6T& sizing,
                                 std::span<const Variation6T> cells,
                                 double vdd, double c_node, double t_budget,
                                 std::span<bool> fails,
                                 WriteLaneTier tier = write_lane_tier());

}  // namespace hynapse::circuit
