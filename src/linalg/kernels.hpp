#pragma once
// Vector algebra and fused kernels for the CG and IPM hot loops.
//
// This header is the single kernel layer of the library (it absorbed the old
// vec_ops.hpp): by-value helpers for cold paths, allocation-free _into /
// fused kernels for hot loops, and the strided column twins used by the
// blocked multi-RHS CG.
//
// Every hot kernel dispatches on the execution mode exactly once per call
// (kernel_mode() below), then runs a loop with no per-element tracker or
// bindings lookups:
//
//   kInstrumented — the tracker is recording PRAM work/depth. Kernels run
//     the exact primitive sequence the seed code executed so the counters
//     stay bit-for-bit identical across PRs (perf-trajectory gate).
//   kWallPooled — wall-clock with a multi-thread pool bound. Kernels keep the
//     legacy parallel_for / parallel_reduce paths: the blocked combine tree
//     depends only on (range, grain, threads), which is what keeps the
//     multi-RHS CG bit-identical to k single-RHS solves under a pool. Only a
//     single wall-clock solve on a multi-thread pool lands here; items that
//     Engine::solve_batch fans across its pool bind no pool and run
//     kWallSerial.
//   kWallSerial — wall-clock with no pool (or a 1-thread one) bound. Kernels
//     call the SIMD layer (linalg/simd_kernels.hpp): AVX2 when available,
//     else the canonical scalar implementations. All reductions in this mode
//     use the stripe-4 order, consistently, so the single-vs-multi-RHS
//     identity holds here too (tests/accel_test.cpp and
//     tests/kernel_simd_test.cpp).
//
// Wall-mode floating-point results may differ across modes (different but
// fixed association); within a mode they are deterministic and identical
// between the scalar and AVX2 dispatch targets.

#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/simd.hpp"
#include "linalg/simd_kernels.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::linalg {

using Vec = std::vector<double>;

// ---------------------------------------------------------------------------
// Execution-mode dispatch.
// ---------------------------------------------------------------------------

enum class KernelMode { kInstrumented, kWallSerial, kWallPooled };

/// One tracker + bindings lookup per kernel call (the per-element charge
/// plumbing this replaces showed up at ~7% of the IPM profile).
inline KernelMode kernel_mode() {
  if (par::current_tracker().enabled()) return KernelMode::kInstrumented;
  par::ThreadPool* pool = par::current_wall_pool();
  return (pool == nullptr || pool->num_threads() <= 1) ? KernelMode::kWallSerial
                                                       : KernelMode::kWallPooled;
}

// ---------------------------------------------------------------------------
// By-value helpers (cold paths; allocate their result).
// ---------------------------------------------------------------------------

inline Vec constant(std::size_t n, double v) {
  return par::tabulate<double>(n, [&](std::size_t) { return v; });
}

template <class F>
Vec map(const Vec& a, F&& f) {
  return par::tabulate<double>(a.size(), [&](std::size_t i) { return f(a[i]); });
}

template <class F>
Vec zip(const Vec& a, const Vec& b, F&& f) {
  return par::tabulate<double>(a.size(), [&](std::size_t i) { return f(a[i], b[i]); });
}

inline Vec add(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x + y; }); }
inline Vec sub(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x - y; }); }
inline Vec mul(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x * y; }); }
inline Vec div(const Vec& a, const Vec& b) { return zip(a, b, [](double x, double y) { return x / y; }); }
inline Vec scale(const Vec& a, double s) { return map(a, [s](double x) { return x * s; }); }
inline Vec sqrt(const Vec& a) { return map(a, [](double x) { return std::sqrt(x); }); }
inline Vec inv(const Vec& a) { return map(a, [](double x) { return 1.0 / x; }); }

inline void add_in_place(Vec& a, const Vec& b) {
  par::parallel_for(0, a.size(), [&](std::size_t i) { a[i] += b[i]; });
}
inline void axpy(Vec& y, double alpha, const Vec& x) {
  par::parallel_for(0, y.size(), [&](std::size_t i) { y[i] += alpha * x[i]; });
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

inline double dot(const Vec& a, const Vec& b) {
  if (kernel_mode() == KernelMode::kWallSerial)
    return simd::dot(a.data(), b.data(), a.size());
  return par::parallel_reduce<double>(
      0, a.size(), 0.0, [&](std::size_t i) { return a[i] * b[i]; },
      [](double x, double y) { return x + y; });
}

inline double sum(const Vec& a) {
  return par::parallel_reduce<double>(
      0, a.size(), 0.0, [&](std::size_t i) { return a[i]; },
      [](double x, double y) { return x + y; });
}

inline double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

inline double norm_inf(const Vec& a) {
  return par::parallel_reduce<double>(
      0, a.size(), 0.0, [&](std::size_t i) { return std::abs(a[i]); },
      [](double x, double y) { return x > y ? x : y; });
}

/// ||v||_tau = sqrt(sum tau_i v_i^2)  (Section 2.1).
inline double norm_tau(const Vec& v, const Vec& tau) {
  return std::sqrt(par::parallel_reduce<double>(
      0, v.size(), 0.0, [&](std::size_t i) { return tau[i] * v[i] * v[i]; },
      [](double x, double y) { return x + y; }));
}

/// Mixed norm ||v||_{tau+inf} = ||v||_inf + c_norm * ||v||_tau  (Section 2.1).
inline double norm_tau_inf(const Vec& v, const Vec& tau, double c_norm) {
  return norm_inf(v) + c_norm * norm_tau(v, tau);
}

/// Entrywise u ≈_eps v: exp(-eps) v_i <= u_i <= exp(eps) v_i for all i
/// (requires same strict sign; used for approximation invariants).
bool approx_eq(const Vec& u, const Vec& v, double eps);

// ---------------------------------------------------------------------------
// Allocation-free elementwise kernels (write into caller-owned buffers).
// ---------------------------------------------------------------------------

/// out[i] = f(a[i]); out must already have a.size() elements.
template <class F>
void map_into(const Vec& a, Vec& out, F&& f) {
  par::parallel_for(0, a.size(), [&](std::size_t i) { out[i] = f(a[i]); });
}

/// out[i] = f(a[i], b[i]); out must already have a.size() elements.
template <class F>
void zip_into(const Vec& a, const Vec& b, Vec& out, F&& f) {
  par::parallel_for(0, a.size(), [&](std::size_t i) { out[i] = f(a[i], b[i]); });
}

inline void add_into(const Vec& a, const Vec& b, Vec& out) {
  zip_into(a, b, out, [](double x, double y) { return x + y; });
}
inline void sub_into(const Vec& a, const Vec& b, Vec& out) {
  zip_into(a, b, out, [](double x, double y) { return x - y; });
}
inline void mul_into(const Vec& a, const Vec& b, Vec& out) {
  zip_into(a, b, out, [](double x, double y) { return x * y; });
}
inline void scale_into(const Vec& a, double s, Vec& out) {
  map_into(a, out, [s](double x) { return x * s; });
}

/// y = a*x + b*y (one pass; covers the CG direction update p = z + beta*p).
inline void axpby(Vec& y, double a, const Vec& x, double b) {
  if (kernel_mode() == KernelMode::kWallSerial) {
    simd::axpby(y.data(), a, x.data(), b, y.size());
    return;
  }
  par::parallel_for(0, y.size(), [&](std::size_t i) { y[i] = a * x[i] + b * y[i]; });
}

/// Fused CG iterate update: x += alpha*p, r -= alpha*mp, returns r.r.
/// Replaces axpy + axpy + norm2^2 — three passes over four vectors become one.
inline double cg_step_residual(Vec& x, Vec& r, const Vec& p, const Vec& mp, double alpha) {
  switch (kernel_mode()) {
    case KernelMode::kInstrumented:
      // Instrumented: the seed's exact primitive sequence (charge-identical).
      axpy(x, alpha, p);
      axpy(r, -alpha, mp);
      return dot(r, r);
    case KernelMode::kWallSerial:
      return simd::cg_step(x.data(), r.data(), p.data(), mp.data(), alpha, r.size());
    case KernelMode::kWallPooled:
      break;
  }
  return par::parallel_reduce<double>(
      0, r.size(), 0.0,
      [&](std::size_t i) {
        x[i] += alpha * p[i];
        const double ri = r[i] - alpha * mp[i];
        r[i] = ri;
        return ri * ri;
      },
      [](double u, double v) { return u + v; });
}

/// Fused Jacobi-preconditioner refresh: z = dinv .* r, returns r.z.
/// Replaces mul + dot — two passes become one.
inline double precond_refresh(const Vec& dinv, const Vec& r, Vec& z) {
  switch (kernel_mode()) {
    case KernelMode::kInstrumented:
      mul_into(dinv, r, z);
      return dot(r, z);
    case KernelMode::kWallSerial:
      return simd::jacobi_refresh(dinv.data(), r.data(), z.data(), r.size());
    case KernelMode::kWallPooled:
      break;
  }
  return par::parallel_reduce<double>(
      0, r.size(), 0.0,
      [&](std::size_t i) {
        const double zi = dinv[i] * r[i];
        z[i] = zi;
        return r[i] * zi;
      },
      [](double u, double v) { return u + v; });
}

// ---------------------------------------------------------------------------
// Strided block kernels: column j of a row-major n×k block (slot i*k + j).
//
// These mirror the contiguous kernels above element for element within each
// execution mode. Pooled: the wall parallel_reduce's combining tree depends
// only on (range, grain, threads) — never on the loop body — so a strided
// reduction over [0, n) produces the same partial-sum tree as the contiguous
// one. Serial wall: both use the stripe-4 order. Either way the blocked
// multi-RHS CG in solve_sdd_multi stays bit-identical to k independent
// single-RHS solves (asserted by tests/accel_test.cpp).
// ---------------------------------------------------------------------------

/// dot over column j: sum_i a[i*k+j] * b[i*k+j].
inline double dot_strided(const Vec& a, const Vec& b, std::size_t k, std::size_t j,
                          std::size_t n) {
  if (kernel_mode() == KernelMode::kWallSerial)
    return simd::dot_strided(a.data(), b.data(), k, j, n);
  return par::parallel_reduce<double>(
      0, n, 0.0, [&](std::size_t i) { return a[i * k + j] * b[i * k + j]; },
      [](double x, double y) { return x + y; });
}

/// Column-j twin of axpby: y_col = a*x_col + b*y_col.
inline void axpby_strided(Vec& y, double a, const Vec& x, double b, std::size_t k,
                          std::size_t j, std::size_t n) {
  par::parallel_for(0, n, [&](std::size_t i) { y[i * k + j] = a * x[i * k + j] + b * y[i * k + j]; });
}

/// Column-j twin of cg_step_residual: x_col += alpha*p_col, r_col -= alpha*mp_col,
/// returns r_col . r_col.
inline double cg_step_residual_strided(Vec& x, Vec& r, const Vec& p, const Vec& mp,
                                       double alpha, std::size_t k, std::size_t j,
                                       std::size_t n) {
  switch (kernel_mode()) {
    case KernelMode::kInstrumented:
      par::parallel_for(0, n, [&](std::size_t i) { x[i * k + j] += alpha * p[i * k + j]; });
      par::parallel_for(0, n, [&](std::size_t i) { r[i * k + j] -= alpha * mp[i * k + j]; });
      return par::parallel_reduce<double>(
          0, n, 0.0, [&](std::size_t i) { return r[i * k + j] * r[i * k + j]; },
          [](double u, double v) { return u + v; });
    case KernelMode::kWallSerial: {
      // Stripe-4 so the result matches the batched cg_step_cols bit for bit.
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = i * k + j;
        x[s] += alpha * p[s];
        const double ri = r[s] - alpha * mp[s];
        r[s] = ri;
        acc[i & 3] += ri * ri;
      }
      return (acc[0] + acc[1]) + (acc[2] + acc[3]);
    }
    case KernelMode::kWallPooled:
      break;
  }
  return par::parallel_reduce<double>(
      0, n, 0.0,
      [&](std::size_t i) {
        const std::size_t s = i * k + j;
        x[s] += alpha * p[s];
        const double ri = r[s] - alpha * mp[s];
        r[s] = ri;
        return ri * ri;
      },
      [](double u, double v) { return u + v; });
}

/// Column-j twin of precond_refresh with a contiguous dinv (length n):
/// z_col = dinv .* r_col, returns r_col . z_col.
inline double precond_refresh_strided(const Vec& dinv, const Vec& r, Vec& z, std::size_t k,
                                      std::size_t j, std::size_t n) {
  switch (kernel_mode()) {
    case KernelMode::kInstrumented:
      par::parallel_for(0, n, [&](std::size_t i) { z[i * k + j] = dinv[i] * r[i * k + j]; });
      return par::parallel_reduce<double>(
          0, n, 0.0, [&](std::size_t i) { return r[i * k + j] * z[i * k + j]; },
          [](double u, double v) { return u + v; });
    case KernelMode::kWallSerial: {
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = i * k + j;
        const double zi = dinv[i] * r[s];
        z[s] = zi;
        acc[i & 3] += r[s] * zi;
      }
      return (acc[0] + acc[1]) + (acc[2] + acc[3]);
    }
    case KernelMode::kWallPooled:
      break;
  }
  return par::parallel_reduce<double>(
      0, n, 0.0,
      [&](std::size_t i) {
        const std::size_t s = i * k + j;
        const double zi = dinv[i] * r[s];
        z[s] = zi;
        return r[s] * zi;
      },
      [](double u, double v) { return u + v; });
}

}  // namespace pmcf::linalg
