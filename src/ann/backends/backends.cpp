#include "ann/backends/backend.hpp"

#include <atomic>
#include <cstring>

#include "ann/backends/kernels_detail.hpp"

namespace hynapse::ann::backends {

namespace {

std::atomic<Backend> g_default_backend{Backend::reference};

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

Backend default_backend() noexcept {
  return g_default_backend.load(std::memory_order_relaxed);
}

void set_default_backend(Backend backend) noexcept {
  g_default_backend.store(backend, std::memory_order_relaxed);
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "reference") return Backend::reference;
  if (name == "simd") return Backend::simd;
  return std::nullopt;
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

bool strip_backend_flag(int& argc, char** argv, std::string* error) {
  // Mirrors util::strip_threads_flag: remove the flag wherever it appears so
  // command parsers never see it, then apply it process-wide.
  bool ok = true;
  const auto apply = [&](const char* name) {
    if (const auto backend = parse_backend(name)) {
      set_default_backend(*backend);
    } else {
      ok = false;
      if (error) *error = std::string{"unknown backend '"} + name + "'";
    }
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--backend", 9) == 0 && arg[9] == '=') {
      apply(arg + 10);
      continue;
    }
    if (std::strcmp(arg, "--backend") == 0) {
      if (i + 1 < argc) {
        apply(argv[i + 1]);
        ++i;
      } else {
        ok = false;
        if (error) *error = "--backend requires a value";
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return ok;
}

}  // namespace hynapse::ann::backends
