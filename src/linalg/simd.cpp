#include "linalg/simd.hpp"

namespace pmcf::linalg::simd {

namespace {

bool detect_avx2() {
#if defined(PMCF_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  // Runs during static initialization (detail::g_enabled), possibly before
  // libgcc's own CPU-model constructor.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

bool available() {
  static const bool ok = detect_avx2();
  return ok;
}

namespace detail {
bool g_enabled = available();
}  // namespace detail

void set_force_scalar(bool force) { detail::g_enabled = !force && available(); }

}  // namespace pmcf::linalg::simd
