#include "ann/backends/backend.hpp"

#include "ann/backends/kernels_detail.hpp"

namespace hynapse::ann::backends {

namespace {

/// The widest simd tier this build has and this CPU runs, or nullptr.
const KernelOps* simd_ops() noexcept {
  if (const KernelOps* wide = detail::simd512_kernel_ops()) return wide;
  return detail::simd_avx2_kernel_ops();
}

}  // namespace

const KernelOps& kernel_ops(Backend backend) noexcept {
  if (backend == Backend::simd) {
    if (const KernelOps* ops = simd_ops()) return *ops;
  }
  return reference_kernel_ops();
}

bool simd_compiled() noexcept { return simd_ops() != nullptr; }

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
