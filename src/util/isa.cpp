// CMake defines HYNAPSE_ISA_AVX2 / HYNAPSE_ISA_AVX512 here and on every tier
// translation unit it compiles with -mavx2 / -mavx512f; this TU itself keeps
// the baseline ISA.
#include "util/isa.hpp"

namespace hynapse::util {

namespace {

IsaTier probe() noexcept {
  IsaTier tier = IsaTier::scalar;
#if defined(HYNAPSE_ISA_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    tier = IsaTier::avx2;
#if defined(HYNAPSE_ISA_AVX512)
    if (__builtin_cpu_supports("avx512f")) tier = IsaTier::avx512;
#endif
  }
#endif
  return tier;
}

}  // namespace

IsaTier isa_tier() noexcept {
  static const IsaTier tier = probe();
  return tier;
}

std::vector<IsaTier> available_isa_tiers() {
  std::vector<IsaTier> tiers{IsaTier::scalar};
  for (const IsaTier t : {IsaTier::avx2, IsaTier::avx512}) {
    if (t <= isa_tier()) tiers.push_back(t);
  }
  return tiers;
}

std::string_view isa_tier_name(IsaTier tier) noexcept {
  switch (tier) {
    case IsaTier::avx512:
      return "avx512";
    case IsaTier::avx2:
      return "avx2";
    case IsaTier::scalar:
      break;
  }
  return "scalar";
}

}  // namespace hynapse::util
