#pragma once
// Runtime SIMD dispatch for the kernel layer (DESIGN.md §13).
//
// `PMCF_SIMD=ON` (the default) compiles an AVX2 translation unit alongside
// the portable scalar kernels; which one runs is decided at runtime so a
// single binary carries both paths and the property suite
// (tests/kernel_simd_test.cpp) can compare them bitwise on the same host.
//
//   available()  — the AVX2 TU is compiled in AND the CPU reports AVX2.
//   enabled()    — available() and not overridden by set_force_scalar().
//
// Determinism contract: every AVX2 kernel reproduces the scalar kernel's
// arithmetic bit for bit (same per-element expressions, same reduction
// order, no FMA contraction — the AVX2 TU is built with -ffp-contract=off),
// so flipping the dispatch never changes a solver result.

namespace pmcf::linalg::simd {

/// True when the AVX2 kernels are compiled in and the CPU supports them.
[[nodiscard]] bool available();

namespace detail {
/// enabled(), resolved once at static initialization and again by every
/// set_force_scalar() call. Reads false (the scalar kernels, which are
/// bit-identical) until then.
extern bool g_enabled;
}  // namespace detail

/// available() minus the test override. Checked once per kernel call, so it
/// is a plain load rather than a call.
[[nodiscard]] inline bool enabled() { return detail::g_enabled; }

/// Test hook: force the scalar fallback even when AVX2 is available.
/// Not thread-safe; flip it only from single-threaded test setup code.
void set_force_scalar(bool force);

}  // namespace pmcf::linalg::simd
