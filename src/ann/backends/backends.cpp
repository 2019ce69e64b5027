#include "ann/backends/backend.hpp"

#include "ann/backends/kernels_detail.hpp"

namespace hynapse::ann::backends {

const KernelOps* detail::simd_kernel_ops(util::IsaTier tier) noexcept {
  return util::isa_table(tier, simd_avx2_kernel_ops(),
                         simd_avx512_kernel_ops());
}

const KernelOps& kernel_ops(Backend backend) noexcept {
  if (backend == Backend::simd) {
    if (const KernelOps* ops = detail::simd_kernel_ops(util::isa_tier())) {
      return *ops;
    }
  }
  return reference_kernel_ops();
}

bool simd_compiled() noexcept {
  return detail::simd_kernel_ops(util::isa_tier()) != nullptr;
}

std::string_view backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::simd:
      return "simd";
    case Backend::reference:
      break;
  }
  return "reference";
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::reference};
  if (simd_compiled()) out.push_back(Backend::simd);
  return out;
}

}  // namespace hynapse::ann::backends
