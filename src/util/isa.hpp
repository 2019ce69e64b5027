// The x86 instruction-set tier the vector kernels run on: the GEMM of
// ann::backends::Backend::simd, the Monte-Carlo lanes of circuit/lanes.hpp
// and the lanes of util::Rng::walk. One tier is picked per process, the
// widest this build compiled (HYNAPSE_SIMD_BACKEND on an x86 toolchain) and
// this CPU runs; cpuid is probed here and nowhere else. Each subsystem maps
// the tier to its own kernel table and falls back on its portable path when
// it has none for the tier (the lanes without libmvec, for one).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace hynapse::util {

/// Nested: a CPU that runs a tier runs every narrower one.
enum class IsaTier : std::uint8_t { scalar, avx2, avx512 };

/// The widest tier this build compiled and this CPU runs, probed once.
[[nodiscard]] IsaTier isa_tier() noexcept;
/// Every tier this build compiled and this CPU runs, scalar first: every
/// tier up to isa_tier().
[[nodiscard]] std::vector<IsaTier> available_isa_tiers();
/// "scalar" / "avx2" / "avx512".
[[nodiscard]] std::string_view isa_tier_name(IsaTier tier) noexcept;

/// A subsystem's kernel table for `tier`, given its AVX2 and AVX-512 tables
/// (nullptr where this build lacks one): nullptr on the scalar tier and on a
/// tier this CPU does not run.
template <typename Table>
[[nodiscard]] const Table* isa_table(IsaTier tier, const Table* avx2,
                                     const Table* avx512) noexcept {
  if (tier > isa_tier()) return nullptr;
  switch (tier) {
    case IsaTier::avx512:
      return avx512;
    case IsaTier::avx2:
      return avx2;
    case IsaTier::scalar:
      break;
  }
  return nullptr;
}

}  // namespace hynapse::util
