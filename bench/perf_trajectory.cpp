// Perf-trajectory driver: the one bench harness.
//
// Timed workloads are first run once in instrumented mode to capture the
// model-level work/depth, then timed with the tracker disabled across a
// sweep of thread-pool sizes. Rows of kind "paper" regenerate the
// EXPERIMENTS.md tables instead: one instrumented pass per sweep point of the
// experiment and no wall-clock sweep, since the tables use only model counts.
// The output is a single JSON document (schema "pmcf-perf-trajectory-v1";
// the checked-in BENCH_pr<N>.json files are full-scale runs of it) so perf
// trajectories can be diffed across PRs.
//
// Usage:
//   perf_trajectory [--out=FILE] [--threads=1,2,8] [--scale=tiny|full]
//                   [--reps=N] [--list]
//
// `--out` defaults to perf_trajectory.json in the working directory.
// `--scale=tiny` shrinks every instance (and runs only the first sweep point
// of each paper case) so the whole run finishes in a few seconds; CI uses it
// as a smoke test. Reported wall times are the minimum over `reps` runs
// (after one warmup) — minimum, not mean, because scheduler noise is
// strictly additive.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/bellman_ford.hpp"
#include "baselines/cost_scaling.hpp"
#include "baselines/hopcroft_karp.hpp"
#include "baselines/ssp.hpp"
#include "core/deadline.hpp"
#include "core/solver_context.hpp"
#include "ds/dual_maintenance.hpp"
#include "ds/gradient_maintenance.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/heavy_sampler.hpp"
#include "ds/lewis_maintenance.hpp"
#include "expander/dynamic_decomp.hpp"
#include "expander/trimming.hpp"
#include "expander/unit_flow.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "linalg/accel_cache.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/bipartite_matching.hpp"
#include "mcf/certify.hpp"
#include "mcf/engine.hpp"
#include "mcf/min_cost_flow.hpp"
#include "mcf/reachability.hpp"
#include "mcf/sssp.hpp"
#include "parallel/rng.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_depth.hpp"
#include "soak_harness.hpp"

namespace {

using namespace pmcf;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string out = "perf_trajectory.json";
  std::vector<int> threads = {1, 2, 8};
  bool tiny = false;
  int reps = 5;
  bool list = false;
};

struct ThreadPoint {
  int threads = 1;
  double wall_ms = 0.0;
  double speedup = 1.0;
};

struct WorkloadReport {
  std::string name;
  std::string kind;  // "table1" | "component" | "serving" | "soak" | "paper"
  std::uint64_t work = 0;
  std::uint64_t depth = 0;
  std::vector<ThreadPoint> points;
  /// Pre-rendered JSON object with workload-specific metrics (soak reports:
  /// latency percentiles, shed rate, per-priority goodput; paper rows: the
  /// per-point counters). Empty = absent.
  std::string extras_json;
};

/// A workload is (setup-once state captured in the closure) + a body that can
/// be run repeatedly. Bodies must be deterministic and self-contained. A
/// workload with `standalone` set manages its own threads and timing (the
/// soak harness drives client threads against a shared Engine; paper rows run
/// one instrumented pass per sweep point); it is run once instead of going
/// through the instrumented pass + thread sweep.
struct Workload {
  std::string name;
  std::string kind;
  std::function<void()> body;
  std::function<WorkloadReport()> standalone;
};

double time_once_ms(const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

WorkloadReport measure(const Workload& w, const Options& opt) {
  WorkloadReport rep;
  rep.name = w.name;
  rep.kind = w.kind;

  // Instrumented pass: single-threaded, deterministic PRAM counters.
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);
  par::Tracker::instance().reset();
  w.body();
  const par::Cost c = par::snapshot();
  rep.work = c.work;
  rep.depth = c.depth;

  // Wall-clock sweep: tracker off, pool per thread count.
  par::Tracker::instance().set_enabled(false);
  for (const int t : opt.threads) {
    par::ThreadPool::configure(static_cast<std::size_t>(t));
    w.body();  // warmup (first-touch, pool spin-up)
    double best = 1e300;
    for (int r = 0; r < opt.reps; ++r) best = std::min(best, time_once_ms(w.body));
    rep.points.push_back({t, best, 1.0});
  }
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);

  const double base = rep.points.empty() ? 0.0 : rep.points.front().wall_ms;
  for (auto& p : rep.points) p.speedup = p.wall_ms > 0.0 ? base / p.wall_ms : 0.0;
  return rep;
}

// ---------------------------------------------------------------------------
// Instance builders shared by the timed rows and the paper experiments: a
// timed row whose instance is one sweep point of an experiment builds it here.

/// The IPM options of the Table-1 rows and most paper experiments.
mcf::SolveOptions reference_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

/// Dense random min-cost flow network (m = 8n) of T1-L, seed 42.
graph::Digraph table1_instance(graph::Vertex n) {
  par::Rng rng(42);
  return graph::random_flow_network(n, 8 * n, 6, 6, rng);
}

/// Long-diameter layered digraph of T1-R, seed 7.
graph::Digraph layered_instance(graph::Vertex layers) {
  par::Rng rng(7);
  return graph::layered_digraph(layers, 4, 0.3, rng);
}

/// A.1's Laplacian system (A^T D A) x = b on a dense random network with
/// IPM-typical diagonal scalings.
struct SddInstance {
  graph::Digraph g;
  linalg::Vec d;
  linalg::Vec b;
  graph::Vertex dropped = 0;
};

std::shared_ptr<const SddInstance> sdd_instance(graph::Vertex n, std::int64_t density) {
  par::Rng rng(12345);
  auto s = std::make_shared<SddInstance>();
  s->g = graph::random_flow_network(n, density * n, 100, 100, rng);
  const linalg::IncidenceOp a(s->g);
  s->d.resize(a.rows());
  for (auto& x : s->d) x = 0.5 + rng.next_double();
  s->b.resize(a.cols());
  for (auto& x : s->b) x = rng.next_double() - 0.5;
  s->dropped = a.dropped();
  s->b[static_cast<std::size_t>(s->dropped)] = 0.0;
  return s;
}

linalg::SolveResult solve_sdd_instance(const SddInstance& s) {
  const linalg::Csr lap = linalg::reduced_laplacian(s.g, s.d, s.dropped);
  return linalg::solve_sdd(pmcf::core::default_context(), lap, s.b,
                           {.tolerance = 1e-8, .max_iters = 2000});
}

/// L3.11's unit-flow problem on a 4-regular expander, seed 17: concentrated
/// sources (several times the local sink capacity) force the push-relabel
/// dynamics to spread flow; sinks absorb half a degree each.
struct UnitFlowInstance {
  graph::UndirectedGraph g;
  expander::UnitFlowProblem p;
};

std::shared_ptr<const UnitFlowInstance> unit_flow_instance(graph::Vertex n,
                                                           std::size_t sources) {
  par::Rng rng(17);
  auto s = std::make_shared<UnitFlowInstance>(
      UnitFlowInstance{graph::random_regular_expander(n, 4, rng), {}});
  expander::UnitFlowProblem& p = s->p;
  p.g = &s->g;
  p.cap.assign(s->g.edge_slots(), 8);
  p.source.assign(static_cast<std::size_t>(n), 0);
  p.sink.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < sources; ++k)
    p.source[rng.next_below(static_cast<std::uint64_t>(n))] += 6 * 8;
  for (graph::Vertex v = 0; v < n; ++v) p.sink[static_cast<std::size_t>(v)] = s->g.degree(v) / 2;
  p.height = 24;
  return s;
}

// ---------------------------------------------------------------------------
// Timed workloads.

Workload make_sdd_solver(bool tiny) {
  const auto s = sdd_instance(tiny ? 64 : 512, 8);  // A.1 at (512, 8)
  return {"sdd_solver_cg", "component", [s] {
            if (solve_sdd_instance(*s).x.empty()) std::abort();
          }};
}

Workload make_unit_flow(bool tiny) {
  const auto s = unit_flow_instance(tiny ? 500 : 8000, 2);  // L3.11 at (8000, 2)
  return {"unit_flow", "component", [s] {
            if (expander::parallel_unit_flow(s->p).flow.empty()) std::abort();
          }};
}

Workload make_table1_mincostflow(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 12 : 32);  // T1-L ReferenceIpm at 32
  auto g = std::make_shared<const graph::Digraph>(table1_instance(n));
  return {"table1_mincostflow_reference_ipm", "table1", [g, n] {
            (void)mcf::min_cost_max_flow(*g, 0, n - 1, reference_opts()).cost;
          }};
}

Workload make_table1_reachability(bool tiny) {
  // T1-R FlowReachability at 16 (tiny: at 8).
  auto g = std::make_shared<const graph::Digraph>(layered_instance(tiny ? 8 : 16));
  return {"table1_reachability_flow", "table1", [g] {
            (void)mcf::reachability(*g, 0, reference_opts()).reachable;
          }};
}

Workload make_reduce(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 22);
  auto v = std::make_shared<std::vector<double>>(n);
  par::Rng rng(3);
  for (auto& x : *v) x = rng.next_double();
  return {"parallel_reduce", "component", [v, n] {
            double acc = 0.0;
            for (int rep = 0; rep < 8; ++rep)
              acc += par::parallel_reduce<double>(
                  0, n, 0.0, [&](std::size_t i) { return (*v)[i]; },
                  [](double a, double b) { return a + b; });
            if (acc < 0.0) std::abort();
          }};
}

Workload make_scan(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 22);
  auto v = std::make_shared<std::vector<std::int64_t>>(n);
  par::Rng rng(5);
  for (auto& x : *v) x = static_cast<std::int64_t>(rng.next_below(1000));
  return {"exclusive_scan", "component", [v] {
            for (int rep = 0; rep < 4; ++rep) {
              auto [out, total] = par::exclusive_scan(*v);
              if (total < 0 || out.size() != v->size()) std::abort();
            }
          }};
}

Workload make_pack(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 22);
  auto v = std::make_shared<std::vector<std::uint64_t>>(n);
  par::Rng rng(9);
  for (auto& x : *v) x = rng.next_below(1000);
  return {"pack_indices", "component", [v, n] {
            for (int rep = 0; rep < 4; ++rep) {
              const auto idx = par::pack_indices(n, [&](std::size_t i) { return (*v)[i] < 500; });
              if (idx.size() > n) std::abort();
            }
          }};
}

Workload make_sort(bool tiny) {
  const std::size_t n = tiny ? (1u << 14) : (1u << 21);
  auto v = std::make_shared<std::vector<std::uint64_t>>(n);
  par::Rng rng(11);
  for (auto& x : *v) x = rng.next_below(~0ull);
  return {"parallel_sort", "component", [v] {
            std::vector<std::uint64_t> copy = *v;
            par::parallel_sort(copy.begin(), copy.end());
            if (!std::is_sorted(copy.begin(), copy.end())) std::abort();
          }};
}

Workload make_spmv(bool tiny) {
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 2048);
  const std::int64_t m = static_cast<std::int64_t>(n) * 16;
  par::Rng rng(23);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto x = std::make_shared<linalg::Vec>(a.cols());
  for (auto& xi : *x) xi = rng.next_double() - 0.5;
  return {"csr_spmv", "component", [lap, x] {
            linalg::Vec y(x->size());
            for (int rep = 0; rep < 64; ++rep) lap->apply_into(rep % 2 ? y : *x, rep % 2 ? *x : y);
          }};
}

Workload make_kernel_spmv(bool tiny) {
  // The raw SpMV kernel through the Csr dispatch (DESIGN.md §13): in the
  // serial wall configuration this runs the SELL-4-σ gather kernel over the
  // RCM-renumbered layout; with PMCF_SIMD=OFF (or under the tracker) it is
  // the plain CSR row walk. Values are refreshed between reps so the lazy
  // value-regather path is part of what is measured, as it is inside an IPM.
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 1536);
  const std::int64_t m = static_cast<std::int64_t>(n) * 24;
  par::Rng rng(29);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto x = std::make_shared<linalg::Vec>(a.cols());
  for (auto& xi : *x) xi = rng.next_double() - 0.5;
  return {"kernel_spmv", "component", [lap, x] {
            linalg::Vec y(x->size());
            for (int chunk = 0; chunk < 4; ++chunk) {
              for (auto& v : lap->vals_mut()) v *= chunk % 2 ? 0.5 : 2.0;
              for (int rep = 0; rep < 24; ++rep)
                lap->apply_into(rep % 2 ? y : *x, rep % 2 ? *x : y);
            }
          }};
}

Workload make_kernel_fused_cg(bool tiny) {
  // The fused CG iteration kernels in isolation: one SpMV + dot + fused
  // step/residual + fused Jacobi refresh + axpby per "iteration", the exact
  // per-iteration kernel sequence of solve_sdd minus convergence control.
  // Isolating them makes kernel-layer regressions visible without the solver
  // iteration count in the way.
  const auto n = static_cast<graph::Vertex>(tiny ? 128 : 1024);
  const std::int64_t m = static_cast<std::int64_t>(n) * 16;
  par::Rng rng(31);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto dinv = std::make_shared<linalg::Vec>(lap->dim());
  lap->diagonal_into(*dinv);
  for (auto& v : *dinv) v = 1.0 / v;
  auto b = std::make_shared<linalg::Vec>(lap->dim());
  for (auto& x : *b) x = rng.next_double() - 0.5;
  return {"kernel_fused_cg", "component", [lap, dinv, b] {
            const std::size_t n2 = lap->dim();
            linalg::Vec x(n2, 0.0), r = *b, z(n2), p(n2), mp(n2);
            double rz = linalg::precond_refresh(*dinv, r, z);
            p = z;
            for (int it = 0; it < 200; ++it) {
              lap->apply_into(p, mp);
              const double pmp = linalg::dot(p, mp);
              const double alpha = rz / pmp;
              const double rr = linalg::cg_step_residual(x, r, p, mp, alpha);
              if (rr < 0.0) std::abort();
              const double rz_new = linalg::precond_refresh(*dinv, r, z);
              linalg::axpby(p, rz_new / rz, z, 1.0);
              rz = rz_new;
            }
            if (!(linalg::dot(x, x) >= 0.0)) std::abort();
          }};
}

Workload make_sdd_multi_rhs(bool tiny) {
  // The blocked multi-RHS CG path (DESIGN.md §10): k right-hand sides against
  // one Laplacian share a single nnz-balanced SpMV per iteration instead of k
  // serial solves — the shape of the leverage-score sketch and the robust
  // step's dy/q pair.
  const auto n = static_cast<graph::Vertex>(tiny ? 64 : 512);
  const std::int64_t m = static_cast<std::int64_t>(n) * 8;
  const std::size_t k = tiny ? 8 : 32;
  par::Rng rng(606);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  linalg::Vec d(a.rows());
  for (auto& x : d) x = 0.5 + rng.next_double();
  auto lap = std::make_shared<linalg::Csr>(linalg::reduced_laplacian(*g, d, a.dropped()));
  auto precond = std::make_shared<linalg::SddPreconditioner>();
  precond->build(*lap, linalg::PrecondKind::kIncompleteCholesky);
  auto rhs = std::make_shared<std::vector<linalg::Vec>>(k, linalg::Vec(a.cols()));
  for (auto& b : *rhs) {
    for (auto& x : b) x = rng.next_double() - 0.5;
    b[static_cast<std::size_t>(a.dropped())] = 0.0;
  }
  return {"sdd_multi_rhs", "component", [lap, precond, rhs] {
            const auto sols =
                linalg::solve_sdd_multi(pmcf::core::default_context(), *lap, *rhs, *precond,
                                        {.tolerance = 1e-8, .max_iters = 2000});
            for (const auto& s : sols)
              if (!s.converged) std::abort();
          }};
}

Workload make_precond_reuse(bool tiny) {
  // The preconditioner/Laplacian lifecycle across IPM-style iterations:
  // weights drift 5% per step, the Laplacian is value-refreshed in place,
  // the incomplete-Cholesky factor is reused until drift crosses the
  // staleness threshold, and each solve warm-starts from the previous
  // iterate — the per-iteration pattern of the Newton loop.
  const auto n = static_cast<graph::Vertex>(tiny ? 64 : 384);
  const std::int64_t m = static_cast<std::int64_t>(n) * 8;
  const int steps = tiny ? 6 : 16;
  par::Rng rng(707);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, m, 100, 100, rng));
  const linalg::IncidenceOp a(*g);
  auto d0 = std::make_shared<linalg::Vec>(a.rows());
  for (auto& x : *d0) x = 0.5 + rng.next_double();
  auto b = std::make_shared<linalg::Vec>(a.cols());
  for (auto& x : *b) x = rng.next_double() - 0.5;
  (*b)[static_cast<std::size_t>(a.dropped())] = 0.0;
  const auto dropped = a.dropped();
  return {"precond_reuse", "component", [g, d0, b, dropped, steps] {
            auto& ctx = pmcf::core::default_context();
            linalg::AccelCache& cache = linalg::accel_cache(ctx);
            linalg::Vec w = *d0;
            for (int step = 0; step < steps; ++step) {
              for (auto& x : w) x *= 1.05;
              const linalg::Csr& lap = cache.laplacian(ctx, *g, w, dropped);
              const linalg::SddPreconditioner& pc =
                  cache.preconditioner(ctx, linalg::AccelSite::kNewton, lap, w);
              linalg::Vec& warm = cache.warm_start(linalg::AccelSite::kNewton, 0, lap.dim());
              const auto res = linalg::solve_sdd(ctx, lap, *b, pc,
                                                 {.tolerance = 1e-8, .max_iters = 2000}, &warm);
              if (!res.converged) std::abort();
              warm = res.x;
            }
          }};
}

Workload make_ipm_iterations(bool tiny) {
  // IPM-iteration-dominated end-to-end solve: bigger than the table1 row so
  // the per-iteration costs (Laplacian refresh, cached preconditioner,
  // batched leverage sketch, warm-started Newton) dominate setup/rounding.
  const auto n = static_cast<graph::Vertex>(tiny ? 14 : 48);
  par::Rng rng(53);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, 8 * n, 6, 6, rng));
  return {"ipm_iterations", "table1", [g, n] {
            mcf::SolveOptions opts;
            opts.ipm.mu_end = 1e-3;
            opts.ipm.leverage.sketch_dim = 12;
            const auto res = mcf::min_cost_max_flow(*g, 0, n - 1, opts);
            if (res.status != SolveStatus::kOk) std::abort();
          }};
}

Workload make_engine_batch(bool tiny) {
  // Serving scenario: many independent small instances fanned across the
  // pool via Engine::solve_batch, one solve per task. Each solve runs under
  // its own instrumented SolverContext (single-threaded inside), so scaling
  // comes purely from solving instances concurrently — the throughput shape
  // a batch-serving deployment sees.
  const std::size_t batch_size = tiny ? 8 : 24;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    par::Rng rng(9000 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  auto batch = std::make_shared<std::vector<Instance>>();
  for (const auto& g : *graphs)
    batch->push_back(Instance::max_flow(g, 0, g.num_vertices() - 1));
  return {"engine_solve_batch", "serving", [graphs, batch] {
            const Engine engine({.seed = 4242});
            const auto results = engine.solve_batch(*batch, reference_opts());
            // A batch of independent solves is PRAM work = sum, depth = max;
            // aggregate the per-solve trackers into the ambient one so the
            // instrumented pass reports the batch-level counters.
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            for (const auto& r : results) {
              if (r.result.status != SolveStatus::kOk) std::abort();
              work += r.pram.work;
              depth = std::max(depth, r.pram.depth);
            }
            par::charge(work, depth);
          }};
}

Workload make_engine_deadline_shed(bool tiny) {
  // Serving under pressure (DESIGN.md §11): a batch where half the items
  // carry already-expired deadlines and admission control only has slots for
  // half of the rest. The measured path is the full lifecycle machinery —
  // armed polls inside the admitted solves, typed deadline shedding at
  // admission, and kLoadShed back-pressure — which must stay cheap relative
  // to the solves themselves.
  const std::size_t batch_size = tiny ? 8 : 24;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    par::Rng rng(9500 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  auto batch = std::make_shared<std::vector<Instance>>();
  for (std::size_t i = 0; i < batch_size; ++i) {
    Instance inst = Instance::max_flow((*graphs)[i], 0, (*graphs)[i].num_vertices() - 1);
    // Odd items expired before the batch was even submitted; even items get a
    // generous (but armed) budget so every poll site pays the live-check cost.
    inst.deadline = i % 2 == 1
                        ? core::Deadline::at(core::Deadline::Clock::now() - std::chrono::seconds(1))
                        : core::Deadline::in(std::chrono::hours(1));
    batch->push_back(inst);
  }
  const std::size_t slots = batch_size / 2 + batch_size / 4;  // sheds the tail
  return {"engine_deadline_shed", "serving", [graphs, batch, batch_size, slots] {
            const Engine engine({.seed = 4243, .max_in_flight = slots});
            const auto results = engine.solve_batch(*batch, reference_opts());
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            for (std::size_t i = 0; i < results.size(); ++i) {
              const SolveStatus st = results[i].result.status;
              const SolveStatus want = i >= slots            ? SolveStatus::kLoadShed
                                       : i % 2 == 1          ? SolveStatus::kDeadlineExceeded
                                                             : SolveStatus::kOk;
              if (st != want) std::abort();
              work += results[i].pram.work;
              depth = std::max(depth, results[i].pram.depth);
            }
            par::charge(work, depth);
          }};
}

WorkloadReport run_soak_report(const std::string& name, const soak::SoakConfig& cfg) {
  par::Tracker::instance().set_enabled(false);
  const auto t0 = Clock::now();
  const soak::SoakReport rep = soak::run_soak(cfg);
  const auto t1 = Clock::now();
  par::ThreadPool::configure(1);
  par::Tracker::instance().set_enabled(true);
  WorkloadReport out;
  out.name = name;
  out.kind = "soak";
  out.points.push_back(
      {static_cast<int>(cfg.workers),
       std::chrono::duration<double, std::milli>(t1 - t0).count(), 1.0});
  out.extras_json = rep.to_json(6);
  return out;
}

soak::SoakConfig soak_base_config(bool tiny) {
  soak::SoakConfig cfg;
  // Full scale satisfies the acceptance floor of >= 1e5 requests; tiny keeps
  // the CI smoke run to a couple of seconds. Both run at sustained 2x
  // overload: half of what is offered must shed (typed kLoadShed) or expire,
  // while priority-0 goodput stays high (eviction + DRR dequeue order).
  cfg.requests = tiny ? 2000 : 100000;
  // Engine/client/instance shape: SoakConfig defaults — the acceptance-gate
  // shape (1 slot, queue 12, 16 workers, 2x overload, 16-28 node instances).
  return cfg;
}

Workload make_engine_soak_poisson(bool tiny) {
  Workload w;
  w.name = "engine_soak_poisson";
  w.kind = "soak";
  w.standalone = [tiny] {
    soak::SoakConfig cfg = soak_base_config(tiny);
    cfg.arrivals = soak::ArrivalProcess::kPoisson;
    cfg.seed = 0x50a40001ULL;
    return run_soak_report("engine_soak_poisson", cfg);
  };
  return w;
}

Workload make_engine_soak_burst(bool tiny) {
  Workload w;
  w.name = "engine_soak_burst";
  w.kind = "soak";
  w.standalone = [tiny] {
    soak::SoakConfig cfg = soak_base_config(tiny);
    cfg.arrivals = soak::ArrivalProcess::kBurst;
    cfg.seed = 0x50a40002ULL;
    cfg.burst_factor = 8.0;
    return run_soak_report("engine_soak_burst", cfg);
  };
  return w;
}

Workload make_certify_overhead(bool tiny) {
  // The independent certification pass (exact __int128 feasibility + cost +
  // Bellman-Ford optimality + BFS maximality) on the Table-1 MCF row's
  // instance and solution. Compare this row's wall time against
  // table1_mincostflow_reference_ipm to get the certification overhead as a
  // fraction of the end-to-end solve — the acceptance bound is < 5%.
  const auto n = static_cast<graph::Vertex>(tiny ? 12 : 32);
  auto g = std::make_shared<const graph::Digraph>(table1_instance(n));  // as the T1-L row
  auto sol = std::make_shared<mcf::MinCostFlowResult>(
      mcf::min_cost_max_flow(*g, 0, n - 1, reference_opts()));
  if (sol->status != SolveStatus::kOk) std::abort();
  return {"certify_overhead", "table1", [g, n, sol] {
            const auto report =
                mcf::certify_max_flow(*g, 0, n - 1, sol->arc_flow, sol->flow_value, sol->cost);
            if (!report.certified) std::abort();
            // Model-level cost of the certificate: Bellman-Ford dominates at
            // O(n·m) work; the passes over arcs/vertices are Θ(m + n).
            const auto nn = static_cast<std::uint64_t>(g->num_vertices());
            const auto mm = static_cast<std::uint64_t>(g->num_arcs());
            par::charge(nn * mm + mm + nn, nn);
          }};
}

Workload make_preset_sweep(bool tiny) {
  // Every registered ingredient preset (DESIGN.md §14) solving the Table-1
  // MCF instance back to back — the matrix bench_preset_tune sweeps per
  // workload. Sketch width is left unpinned so each preset's own
  // SketchIngredient is part of what is measured; every answer must come
  // back kOk and carry its preset name in SolveStats.
  const auto n = static_cast<graph::Vertex>(tiny ? 12 : 28);
  par::Rng rng(61);
  auto g = std::make_shared<graph::Digraph>(graph::random_flow_network(n, 8 * n, 6, 6, rng));
  auto names = std::make_shared<std::vector<std::string>>(core::preset_registry().names());
  return {"preset_sweep", "table1", [g, n, names] {
            for (const std::string& preset : *names) {
              mcf::SolveOptions opts;
              opts.preset = preset;
              opts.ipm.mu_end = 1e-3;
              const auto res = mcf::min_cost_max_flow(*g, 0, n - 1, opts);
              if (res.status != SolveStatus::kOk || res.stats.preset != preset) std::abort();
            }
          }};
}

Workload make_incremental_resolve(bool tiny) {
  // The cross-solve instance cache (DESIGN.md §15) doing its headline job:
  // after one priming solve, every round perturbs ~1% of the arc costs by ±1
  // and re-solves warm through Engine::resolve, which repairs the retained
  // optimum for the new costs (budgeted cycle canceling, no IPM run); only a
  // repair over budget restarts the IPM from the central path with the
  // adopted AccelCache. Each round also solves the identical post-delta
  // instance cold on a separate engine; the report's extras carry the
  // measured cold/warm wall times, the warm speedup (acceptance gate: >= 3x
  // at full scale, >= 1x in the CI tiny smoke), the engine's cache hit rate,
  // and how many warm rounds the repair served or fell back from. Costs must
  // agree exactly every round — both sides are independently certified.
  Workload w;
  w.name = "incremental_resolve";
  w.kind = "serving";
  w.standalone = [tiny] {
    const auto n = static_cast<graph::Vertex>(tiny ? 12 : 48);
    const std::int64_t m = 8 * static_cast<std::int64_t>(n);
    const int rounds = tiny ? 3 : 8;
    par::Rng graph_rng(0x1c5e);
    const graph::Digraph g0 = graph::random_flow_network(n, m, 6, 6, graph_rng);
    graph::Digraph mirror = g0;  // tracks the deltas for the cold reference

    const mcf::SolveOptions opts = reference_opts();

    // Wall-clock serial on both sides: the acceptance comparison is at one
    // thread, with the tracker off (measure() is bypassed for standalones).
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(false);
    EngineConfig cfg;
    cfg.seed = 4244;
    cfg.instrument = false;
    cfg.use_global_pool = false;
    const Engine warm_engine(cfg);
    const Engine cold_engine(cfg);

    const InstanceHandle h =
        warm_engine.register_instance(Instance::max_flow(g0, 0, n - 1));
    if (h == 0) std::abort();
    if (warm_engine.resolve(h, {}, opts).result.status != SolveStatus::kOk) std::abort();

    par::Rng delta_rng(0x1c5f);
    const auto num_perturb =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(m) / 100);
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    const auto t_begin = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      InstanceDelta delta;
      for (std::uint64_t k = 0; k < num_perturb; ++k) {
        const auto arc = static_cast<graph::EdgeId>(
            delta_rng.next_below(static_cast<std::uint64_t>(mirror.num_arcs())));
        const std::int64_t cost = std::max<std::int64_t>(
            0, mirror.arc(arc).cost + (delta_rng.next_below(2) == 0 ? -1 : 1));
        delta.cost_changes.push_back({arc, cost});
        mirror.set_cost(arc, cost);
      }
      EngineSolveResult warm;
      warm_ms += time_once_ms([&] { warm = warm_engine.resolve(h, delta, opts); });
      EngineSolveResult cold;
      cold_ms += time_once_ms(
          [&] { cold = cold_engine.solve(Instance::max_flow(mirror, 0, n - 1), opts); });
      if (warm.result.status != SolveStatus::kOk || cold.result.status != SolveStatus::kOk)
        std::abort();
      if (!warm.result.stats.certified || !warm.result.stats.warm_started) std::abort();
      if (warm.result.cost != cold.result.cost ||
          warm.result.flow_value != cold.result.flow_value)
        std::abort();
    }
    const auto t_end = Clock::now();
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);

    const MetricsSnapshot snap = warm_engine.metrics_snapshot();
    const std::uint64_t hits = snap.of(EngineCounter::kInstanceCacheHits);
    const std::uint64_t misses = snap.of(EngineCounter::kInstanceCacheMisses);
    const double hit_rate =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) / static_cast<double>(hits + misses);
    WorkloadReport rep;
    rep.name = "incremental_resolve";
    rep.kind = "serving";
    rep.points.push_back(
        {1, std::chrono::duration<double, std::milli>(t_end - t_begin).count(), 1.0});
    char extras[320];
    std::snprintf(extras, sizeof(extras),
                  "{\"rounds\": %d, \"cold_ms\": %.4f, \"warm_ms\": %.4f, "
                  "\"warm_speedup\": %.3f, \"cache_hit_rate\": %.3f, \"repaired\": %llu, "
                  "\"repair_fallbacks\": %llu}",
                  rounds, cold_ms, warm_ms, warm_ms > 0.0 ? cold_ms / warm_ms : 0.0,
                  hit_rate,
                  static_cast<unsigned long long>(snap.of(EngineCounter::kResolveRepaired)),
                  static_cast<unsigned long long>(snap.of(EngineCounter::kResolveRepairFallback)));
    rep.extras_json = extras;
    return rep;
  };
  return w;
}

Workload make_instance_churn(bool tiny) {
  // A fleet of registered instances under churn against a bounded artifact
  // cache: every round perturbs each instance's costs and resolves it, and
  // every fifth resolve is a structural delta (arc addition) that bumps the
  // epoch and forces a cold re-solve. With capacity for only half the fleet,
  // the LRU evicts continuously — the workload measures the engine's
  // steady-state mix of replays, warm re-solves, cold solves, and evictions.
  const std::size_t fleet = tiny ? 4 : 8;
  const auto n = static_cast<graph::Vertex>(tiny ? 10 : 14);
  const int rounds = tiny ? 2 : 4;
  auto graphs = std::make_shared<std::deque<graph::Digraph>>();
  for (std::size_t i = 0; i < fleet; ++i) {
    par::Rng rng(9700 + 31 * i);
    graphs->push_back(graph::random_flow_network(n, 4 * n, 6, 6, rng));
  }
  return {"instance_churn", "serving", [graphs, fleet, rounds] {
            EngineConfig cfg;
            cfg.seed = 4245;
            cfg.instance_cache_capacity = fleet / 2;
            const Engine engine(cfg);
            const mcf::SolveOptions opts = reference_opts();

            std::vector<InstanceHandle> handles;
            for (const auto& g : *graphs) {
              handles.push_back(
                  engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1)));
              if (handles.back() == 0) std::abort();
            }
            std::uint64_t work = 0;
            std::uint64_t depth = 0;
            par::Rng rng(0xc4u);
            std::size_t tick = 0;
            for (int round = 0; round <= rounds; ++round) {
              for (std::size_t i = 0; i < fleet; ++i, ++tick) {
                InstanceDelta d;
                if (round > 0) {  // round 0 primes the cache with cold solves
                  const auto& g = (*graphs)[i];
                  if (tick % 5 == 4) {
                    const auto v = static_cast<graph::Vertex>(
                        rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
                    d.add_arcs.push_back({0, v == 0 ? g.num_vertices() - 1 : v, 3, 2});
                  } else {
                    for (int k = 0; k < 2; ++k) {
                      const auto arc = static_cast<graph::EdgeId>(
                          rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
                      d.cost_changes.push_back(
                          {arc, static_cast<std::int64_t>(rng.next_below(7))});
                    }
                  }
                }
                const EngineSolveResult r = engine.resolve(handles[i], d, opts);
                if (r.result.status != SolveStatus::kOk || !r.result.stats.certified)
                  std::abort();
                work += r.pram.work;
                depth += r.pram.depth;  // resolves run back to back (serial chain)
              }
            }
            par::charge(work, depth);
          }};
}

// ---------------------------------------------------------------------------
// Paper experiments (EXPERIMENTS.md, DESIGN.md §4): one "paper" row per
// experiment. A row holds one or more cases (the solvers or operations a
// table compares), each with its sweep of `Args` points. Every point builds
// its instance, runs the body once under a freshly reset tracker, and reports
// {case, args, work, depth, <case counters>} in the row's `metrics.points`.

using Args = std::vector<std::int64_t>;
using Counters = std::vector<std::pair<std::string, double>>;

struct PaperCase {
  std::string name;
  std::vector<Args> sweep;
  std::function<Counters(const Args&)> run;
};

/// Runs `body` once on a reset tracker; `body` returns the case's counters,
/// and the pass's work and depth go first. Instance setup stays outside, so
/// only the measured operation is charged.
template <class Body>
Counters instrumented(Body&& body) {
  par::Tracker::instance().reset();
  Counters counters = body();
  const par::Cost c = par::snapshot();
  counters.insert(counters.begin(), {{"work", static_cast<double>(c.work)},
                                     {"depth", static_cast<double>(c.depth)}});
  return counters;
}

Workload paper_row(const std::string& name, bool tiny, std::vector<PaperCase> cases) {
  Workload w;
  w.name = name;
  w.kind = "paper";
  w.standalone = [name, tiny, cases = std::move(cases)] {
    par::ThreadPool::configure(1);
    par::Tracker::instance().set_enabled(true);
    std::ostringstream os;
    os << "{\"points\": [";
    const char* sep = "\n";
    const auto t0 = Clock::now();
    for (const PaperCase& c : cases) {
      for (std::size_t i = 0; i < (tiny ? 1 : c.sweep.size()); ++i) {
        const Args& args = c.sweep[i];
        os << sep << "        {\"case\": \"" << c.name << "\", \"args\": [";
        for (std::size_t j = 0; j < args.size(); ++j) os << (j > 0 ? ", " : "") << args[j];
        os << "]";
        for (const auto& [key, value] : c.run(args)) {
          char num[32];
          std::snprintf(num, sizeof(num), "%.17g", value);  // round-trips the double
          os << ", \"" << key << "\": " << num;
        }
        os << "}";
        sep = ",\n";
      }
    }
    os << "\n      ]}";
    WorkloadReport rep;
    rep.name = name;
    rep.kind = "paper";
    rep.points.push_back(
        {1, std::chrono::duration<double, std::milli>(Clock::now() - t0).count(), 1.0});
    rep.extras_json = os.str();
    return rep;
  };
  return w;
}

graph::Vertex vertices(const Args& a) { return static_cast<graph::Vertex>(a[0]); }

// T1-L — Table 1 (left): the reference IPM is the [LS14] Õ(m√n) row, the
// robust IPM this paper's; `step_work` is its Õ(m/√n + n) per-step quantity.
Workload make_paper_table1_mincostflow(bool tiny) {
  return paper_row(
      "paper_table1_mincostflow", tiny,
      {{"ReferenceIpm", {{16}, {24}, {32}, {48}},
        [](const Args& a) {
          const auto n = vertices(a);
          const auto g = table1_instance(n);
          return instrumented([&]() -> Counters {
            const auto res = mcf::min_cost_max_flow(g, 0, n - 1, reference_opts());
            return {{"ipm_iters", res.stats.ipm_iterations}, {"m", g.num_arcs()}};
          });
        }},
       {"RobustIpm", {{12}, {16}},
        [](const Args& a) {
          const auto n = vertices(a);
          const auto g = table1_instance(n);
          return instrumented([&]() -> Counters {
            mcf::SolveOptions opts;
            opts.method = mcf::Method::kRobustIpm;
            opts.ipm.mu_end = 1e-3;
            const mcf::SolveStats s = mcf::min_cost_max_flow(g, 0, n - 1, opts).stats;
            const double step_work = s.robust_steps > 0
                                         ? static_cast<double>(s.robust_step_work) /
                                               static_cast<double>(s.robust_steps)
                                         : 0.0;
            return {{"ipm_iters", s.ipm_iterations}, {"step_work", step_work}, {"m", g.num_arcs()}};
          });
        }},
       {"SspBaseline", {{16}, {32}, {64}, {128}},
        [](const Args& a) {
          const auto n = vertices(a);
          const auto g = table1_instance(n);
          return instrumented([&]() -> Counters {
            (void)baselines::ssp_min_cost_max_flow(g, 0, n - 1);
            return {{"m", g.num_arcs()}};
          });
        }},
       {"CostScalingBaseline", {{16}, {32}, {64}, {128}},
        [](const Args& a) {
          const auto n = vertices(a);
          const auto g = table1_instance(n);
          return instrumented([&]() -> Counters {
            const auto res = baselines::cost_scaling_max_flow(g, 0, n - 1);
            return {{"refine_phases", res.refine_phases}, {"m", g.num_arcs()}};
          });
        }}});
}

// T1-R — Table 1 (right): parallel BFS depth grows with the diameter
// (`bfs_rounds`); flow-based reachability's with its Õ(√n) `ipm_iters`.
Workload make_paper_table1_reachability(bool tiny) {
  return paper_row(
      "paper_table1_reachability", tiny,
      {{"ParallelBfs", {{32}, {64}, {128}, {256}},
        [](const Args& a) {
          auto g = layered_instance(vertices(a));
          g.build_csr();
          return instrumented(
              [&]() -> Counters { return {{"bfs_rounds", graph::parallel_bfs(g, 0).rounds}}; });
        }},
       {"FlowReachability", {{8}, {16}, {32}},
        [](const Args& a) {
          const auto g = layered_instance(vertices(a));
          return instrumented([&]() -> Counters {
            return {{"ipm_iters", mcf::reachability(g, 0, reference_opts()).stats.ipm_iterations}};
          });
        }}});
}

// F-ITERS — Õ(√n log(CW)) iterations: iters/√n stays roughly flat while
// iters/n decays.
Workload make_paper_ipm_iterations(bool tiny) {
  return paper_row(
      "paper_ipm_iterations", tiny,
      {{"IterationsVsN", {{12}, {24}, {48}, {96}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(11);
          const auto g = graph::random_flow_network(n, 6 * n, 4, 4, rng);
          return instrumented([&]() -> Counters {
            const double iters =
                mcf::min_cost_max_flow(g, 0, n - 1, reference_opts()).stats.ipm_iterations;
            return {{"iters", iters},
                    {"iters_per_sqrt_n", iters / std::sqrt(static_cast<double>(n))},
                    {"iters_per_n", iters / n}};
          });
        }}});
}

// L3.1 — dynamic expander decomposition under batched deletion churn:
// Õ(|E'|/φ^5) amortized work, Õ(1/φ^4) depth per batch.
Workload make_paper_dynamic_expander(bool tiny) {
  return paper_row(
      "paper_dynamic_expander", tiny,
      {{"ChurnUpdates", {{100, 4}, {200, 4}, {400, 4}, {200, 16}, {200, 64}}, [](const Args& a) {
          using expander::DynamicExpanderDecomposition;
          const auto n = vertices(a);
          par::Rng rng(13);
          const auto g = graph::random_regular_expander(n, 4, rng);
          return instrumented([&]() -> Counters {
            DynamicExpanderDecomposition dec(pmcf::core::default_context(), n, {.phi = 0.1});
            std::vector<DynamicExpanderDecomposition::EdgeSpec> edges;
            for (const auto e : g.live_edges()) {
              const auto ep = g.endpoints(e);
              edges.push_back({ep.u, ep.v, e});
            }
            dec.insert(edges);
            std::int64_t next = 0;
            for (int round = 0; round < 10; ++round) {
              std::vector<std::int64_t> del;
              for (std::int64_t k = 0; k < a[1]; ++k) del.push_back(next++);
              dec.erase(del);
            }
            return {{"updates", next}, {"m", g.num_edges()}};
          });
        }}});
}

// L3.11 — ParallelUnitFlow: `edge_scans` scales with the source support
// ‖Δ‖₀, not with m.
Workload make_paper_unit_flow(bool tiny) {
  return paper_row(
      "paper_unit_flow", tiny,
      {{"UnitFlow", {{500, 2}, {2000, 2}, {8000, 2}, {2000, 8}, {2000, 32}}, [](const Args& a) {
          const auto s = unit_flow_instance(vertices(a), static_cast<std::size_t>(a[1]));
          return instrumented([&]() -> Counters {
            const auto r = expander::parallel_unit_flow(s->p);
            return {{"edge_scans", r.edge_scans},
                    {"leftover_excess", r.total_excess},
                    {"m", s->g.num_edges()}};
          });
        }}});
}

// L3.7 — Trimming: work Õ(|E(A, V\A)|/φ^4) tracks the boundary, not m.
Workload make_paper_trimming(bool tiny) {
  return paper_row(
      "paper_trimming", tiny,
      {{"Trimming", {{200, 2}, {200, 8}, {200, 32}, {800, 8}, {3200, 8}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(19);
          auto g = graph::random_regular_expander(n, 4, rng);
          std::vector<std::int64_t> boundary(static_cast<std::size_t>(n), 0);
          const auto live = g.live_edges();
          for (std::int64_t k = 0; k < a[1]; ++k) {
            const auto e = live[rng.next_below(live.size())];
            if (!g.is_live(e)) continue;
            const auto ep = g.endpoints(e);
            boundary[static_cast<std::size_t>(ep.u)] += 1;
            boundary[static_cast<std::size_t>(ep.v)] += 1;
            g.delete_edge(e);
          }
          return instrumented([&]() -> Counters {
            const auto r = expander::trimming(g, std::vector<char>(static_cast<std::size_t>(n), 1),
                                              boundary, {.phi = 0.1});
            return {{"removed_volume", r.removed_volume},
                    {"edge_scans", r.edge_scans},
                    {"m", g.num_edges()}};
          });
        }}});
}

// B.1 — HeavyHitter: query `scans` track n + #heavy rows, not m; `Scale`
// reweights 16 rows, and `bucket_moves` counts those that left their bucket's
// one-exponent band.
Workload make_paper_heavy_hitter(bool tiny) {
  return paper_row(
      "paper_heavy_hitter", tiny,
      {{"HeavyQuery", {{100, 6}, {200, 6}, {400, 6}, {200, 12}, {200, 24}},
        [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(23);
          const auto g = graph::random_flow_network(n, a[1] * n, 4, 4, rng);
          linalg::Vec w(static_cast<std::size_t>(g.num_arcs()));
          for (auto& x : w) x = 0.5 + rng.next_double();
          ds::HeavyHitter hh(pmcf::core::default_context(), g, w);
          // Localized potential: a few heavy rows regardless of m.
          linalg::Vec h(static_cast<std::size_t>(n), 0.0);
          h[1] = 3.0;
          h[2] = -3.0;
          return instrumented([&]() -> Counters {
            return {{"heavy_found", hh.heavy_query(h, 2.0).size()},
                    {"scans", hh.last_query_scans()},
                    {"m", g.num_arcs()}};
          });
        }},
       {"Scale", {{100}, {200}, {400}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(29);
          const auto g = graph::random_flow_network(n, 8 * n, 4, 4, rng);
          ds::HeavyHitter hh(pmcf::core::default_context(), g,
                             linalg::Vec(static_cast<std::size_t>(g.num_arcs()), 1.0));
          return instrumented([&]() -> Counters {
            std::vector<std::size_t> idx;
            linalg::Vec vals;
            for (std::size_t k = 0; k < 16; ++k) {
              idx.push_back(rng.next_below(static_cast<std::uint64_t>(g.num_arcs())));
              vals.push_back(0.1 + 4.0 * rng.next_double());
            }
            hh.scale(idx, vals);
            return {{"bucket_moves", hh.bucket_moves()}, {"m", g.num_arcs()}};
          });
        }}});
}

// C.1 — dynamic Lewis weights over 20 queries under slow drift: amortized
// Õ(n + m/√n) per query.
Workload make_paper_lewis_weights(bool tiny) {
  return paper_row(
      "paper_lewis_weights", tiny,
      {{"LewisMaintenance", {{50, 6}, {100, 6}, {200, 6}, {100, 12}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(31);
          const auto g = graph::random_flow_network(n, a[1] * n, 4, 4, rng);
          const linalg::IncidenceOp inc(g);
          linalg::Vec w(inc.rows());
          for (auto& x : w) x = 0.5 + rng.next_double();
          return instrumented([&]() -> Counters {
            const int queries = 20;
            ds::LewisMaintenanceOptions opts;
            opts.leverage.leverage.sketch_dim = 8;
            ds::LewisMaintenance lm(
                pmcf::core::default_context(), inc, w,
                linalg::constant(inc.rows(), static_cast<double>(n) / inc.rows()), opts);
            for (int t = 0; t < queries; ++t) {
              const std::vector<std::size_t> idx{
                  static_cast<std::size_t>(rng.next_below(inc.rows()))};
              w[idx[0]] *= 1.01;
              lm.scale(idx, {w[idx[0]]});
              (void)lm.query();
            }
            return {{"queries", queries}, {"m", inc.rows()}};
          });
        }}});
}

// D.1 — primal/gradient maintenance over 30 query rounds: per-round cost is
// buckets + triggered coordinates (`changed_total`), not m.
Workload make_paper_primal_gradient(bool tiny) {
  return paper_row(
      "paper_primal_gradient", tiny,
      {{"PrimalGradientRounds", {{50, 6}, {100, 6}, {200, 6}, {100, 12}}, [](const Args& a) {
          par::Rng rng(37);
          const auto g = graph::random_flow_network(vertices(a), a[1] * a[0], 4, 4, rng);
          const linalg::IncidenceOp inc(g);
          const std::size_t m = inc.rows();
          linalg::Vec weights(m), tau(m), z(m);
          for (std::size_t i = 0; i < m; ++i) {
            weights[i] = 0.5 + rng.next_double();
            tau[i] = 0.1 + rng.next_double();
            z[i] = 2.0 * rng.next_double() - 1.0;
          }
          return instrumented([&]() -> Counters {
            const int rounds = 30;
            ds::PrimalGradientMaintenance pg(inc, linalg::Vec(m, 1.0), weights, tau, z,
                                             linalg::Vec(m, 0.05));
            std::size_t changed = 0;
            for (int t = 0; t < rounds; ++t) {
              (void)pg.query_product();
              changed += pg.query_sum({}, {}).changed.size();
            }
            return {{"rounds", rounds}, {"changed_total", changed}, {"m", m}};
          });
        }}});
}

// E.1 — dual maintenance over 20 ADDs of sparse steps: Õ(n log W +
// drift²/ε²) per ADD, no O(m) term.
Workload make_paper_dual_maintenance(bool tiny) {
  return paper_row(
      "paper_dual_maintenance", tiny,
      {{"DualAdds", {{50, 6}, {100, 6}, {200, 6}, {100, 12}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(41);
          const auto g = graph::random_flow_network(n, a[1] * n, 4, 4, rng);
          const auto m = static_cast<std::size_t>(g.num_arcs());
          return instrumented([&]() -> Counters {
            const int adds = 20;
            ds::DualMaintenance dm(pmcf::core::default_context(), g, linalg::Vec(m, 0.0),
                                   linalg::Vec(m, 1.0), {.eps = 0.2});
            std::size_t changed = 0;
            for (int t = 0; t < adds; ++t) {
              linalg::Vec h(static_cast<std::size_t>(n), 0.0);
              for (int k = 0; k < 3; ++k)
                h[rng.next_below(static_cast<std::uint64_t>(n - 1))] +=
                    0.02 * (rng.next_double() - 0.5);
              changed += dm.add(h).changed.size();
            }
            return {{"adds", adds}, {"changed_total", changed}, {"m", m}};
          });
        }}});
}

// E.2 — HeavySampler over 5 draws: the sample size grows like m/√n, far
// below m.
Workload make_paper_heavy_sampler(bool tiny) {
  return paper_row(
      "paper_heavy_sampler", tiny,
      {{"Sample", {{64, 8}, {64, 16}, {64, 32}, {256, 8}}, [](const Args& a) {
          const auto n = vertices(a);
          par::Rng rng(43);
          const auto g = graph::random_flow_network(n, a[1] * n, 4, 4, rng);
          const auto m = static_cast<std::size_t>(g.num_arcs());
          ds::HeavySampler hs(pmcf::core::default_context(), g, linalg::Vec(m, 1.0),
                              linalg::Vec(m, static_cast<double>(n) / static_cast<double>(m)));
          linalg::Vec h(static_cast<std::size_t>(n));
          for (auto& x : h) x = rng.next_double() - 0.5;
          h[static_cast<std::size_t>(n - 1)] = 0.0;
          return instrumented([&]() -> Counters {
            const int draws = 5;
            std::size_t total = 0;
            for (int t = 0; t < draws; ++t) total += hs.sample(h).size();
            return {{"avg_sample_size", static_cast<double>(total) / draws}, {"m", m}};
          });
        }}});
}

// A.1 — SDD solver: work near-linear in nnz with flat CG iterations.
Workload make_paper_sdd_solver(bool tiny) {
  return paper_row(
      "paper_sdd_solver", tiny,
      {{"SddSolve", {{64, 8}, {128, 8}, {256, 8}, {512, 8}, {256, 16}, {256, 32}},
        [](const Args& a) {
          const auto s = sdd_instance(vertices(a), a[1]);
          return instrumented([&]() -> Counters {
            return {{"cg_iters", solve_sdd_instance(*s).iterations}, {"m", a[0] * a[1]}};
          });
        }}});
}

// C1.3–1.5 — corollaries via min-cost flow against combinatorial oracles:
// bipartite matching vs Hopcroft–Karp, negative-weight SSSP vs Bellman–Ford.
Workload make_paper_corollaries(bool tiny) {
  const auto bipartite = [](const Args& a) {
    par::Rng rng(47);
    return graph::random_bipartite(vertices(a), vertices(a), 0.2, rng);
  };
  const auto negative_dag = [](const Args& a) {
    par::Rng rng(53);
    return graph::random_negative_dag(vertices(a), 4 * vertices(a), 5, 10, rng);
  };
  return paper_row(
      "paper_corollaries", tiny,
      {{"MatchingViaFlow", {{8}, {12}, {16}},
        [bipartite](const Args& a) {
          const auto g = bipartite(a);
          return instrumented([&]() -> Counters {
            const auto n = vertices(a);
            return {{"matching", mcf::bipartite_matching(g, n, n, reference_opts()).size}};
          });
        }},
       {"MatchingHopcroftKarp", {{8}, {16}, {64}, {256}},
        [bipartite](const Args& a) {
          const auto g = bipartite(a);
          return instrumented([&]() -> Counters {
            return {{"matching", baselines::hopcroft_karp(g, vertices(a), vertices(a)).size}};
          });
        }},
       {"SsspViaFlow", {{10}, {14}, {20}},
        [negative_dag](const Args& a) {
          const auto g = negative_dag(a);
          return instrumented([&]() -> Counters {
            (void)mcf::shortest_paths(g, 0, reference_opts());
            return {};
          });
        }},
       {"SsspBellmanFord", {{10}, {100}, {1000}}, [negative_dag](const Args& a) {
          const auto g = negative_dag(a);
          return instrumented([&]() -> Counters {
            (void)baselines::bellman_ford(g, 0);
            return {};
          });
        }}});
}

// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<WorkloadReport>& reports) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"pmcf-perf-trajectory-v1\",\n";
  os << "  \"scale\": \"" << (opt.tiny ? "tiny" : "full") << "\",\n";
  os << "  \"reps\": " << opt.reps << ",\n";
  os << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(r.name) << "\",\n";
    os << "      \"kind\": \"" << json_escape(r.kind) << "\",\n";
    os << "      \"pram_work\": " << r.work << ",\n";
    os << "      \"pram_depth\": " << r.depth << ",\n";
    if (!r.extras_json.empty()) os << "      \"metrics\": " << r.extras_json << ",\n";
    os << "      \"runs\": [\n";
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      const auto& p = r.points[j];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "        {\"threads\": %d, \"wall_ms\": %.4f, \"speedup\": %.3f}%s\n",
                    p.threads, p.wall_ms, p.speedup, j + 1 < r.points.size() ? "," : "");
      os << buf;
    }
    os << "      ]\n";
    os << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream f(path);
  f << os.str();
}

[[noreturn]] void usage_error(const std::string& detail) {
  std::cerr << "perf_trajectory: " << detail << "\n"
            << "usage: perf_trajectory [--out=FILE] [--threads=1,2,8] "
               "[--scale=tiny|full] [--reps=N] [--list]\n";
  std::exit(2);
}

int parse_positive_int(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size() || v < 1) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    usage_error(flag + " expects a positive integer, got '" + text + "'");
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  bool reps_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads.clear();
      std::istringstream ss(arg.substr(10));
      std::string tok;
      while (std::getline(ss, tok, ','))
        opt.threads.push_back(parse_positive_int("--threads", tok));
    } else if (arg == "--scale=tiny") {
      opt.tiny = true;
    } else if (arg == "--scale=full") {
      opt.tiny = false;
    } else if (arg.rfind("--reps=", 0) == 0) {
      opt.reps = parse_positive_int("--reps", arg.substr(7));
      reps_set = true;
    } else if (arg == "--list") {
      opt.list = true;
    } else {
      usage_error("unknown argument: " + arg);
    }
  }
  if (opt.tiny && !reps_set) opt.reps = 2;
  if (opt.threads.empty()) opt.threads = {1};
  // threads=1 must come first: it is the speedup baseline.
  std::sort(opt.threads.begin(), opt.threads.end());
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  std::vector<Workload> workloads;
  workloads.push_back(make_sdd_solver(opt.tiny));
  workloads.push_back(make_unit_flow(opt.tiny));
  workloads.push_back(make_table1_mincostflow(opt.tiny));
  workloads.push_back(make_table1_reachability(opt.tiny));
  workloads.push_back(make_reduce(opt.tiny));
  workloads.push_back(make_scan(opt.tiny));
  workloads.push_back(make_pack(opt.tiny));
  workloads.push_back(make_sort(opt.tiny));
  workloads.push_back(make_spmv(opt.tiny));
  workloads.push_back(make_kernel_spmv(opt.tiny));
  workloads.push_back(make_kernel_fused_cg(opt.tiny));
  workloads.push_back(make_sdd_multi_rhs(opt.tiny));
  workloads.push_back(make_precond_reuse(opt.tiny));
  workloads.push_back(make_ipm_iterations(opt.tiny));
  workloads.push_back(make_engine_batch(opt.tiny));
  workloads.push_back(make_engine_deadline_shed(opt.tiny));
  workloads.push_back(make_certify_overhead(opt.tiny));
  workloads.push_back(make_preset_sweep(opt.tiny));
  workloads.push_back(make_engine_soak_poisson(opt.tiny));
  workloads.push_back(make_engine_soak_burst(opt.tiny));
  workloads.push_back(make_incremental_resolve(opt.tiny));
  workloads.push_back(make_instance_churn(opt.tiny));
  workloads.push_back(make_paper_table1_mincostflow(opt.tiny));
  workloads.push_back(make_paper_table1_reachability(opt.tiny));
  workloads.push_back(make_paper_ipm_iterations(opt.tiny));
  workloads.push_back(make_paper_dynamic_expander(opt.tiny));
  workloads.push_back(make_paper_unit_flow(opt.tiny));
  workloads.push_back(make_paper_trimming(opt.tiny));
  workloads.push_back(make_paper_heavy_hitter(opt.tiny));
  workloads.push_back(make_paper_lewis_weights(opt.tiny));
  workloads.push_back(make_paper_primal_gradient(opt.tiny));
  workloads.push_back(make_paper_dual_maintenance(opt.tiny));
  workloads.push_back(make_paper_heavy_sampler(opt.tiny));
  workloads.push_back(make_paper_sdd_solver(opt.tiny));
  workloads.push_back(make_paper_corollaries(opt.tiny));

  if (opt.list) {
    // One name per line, then the count — CI asserts the count so a workload
    // silently dropping out of the registration list above fails the build.
    for (const auto& w : workloads) std::cout << w.name << "\n";
    std::cout << "workloads: " << workloads.size() << "\n";
    return 0;
  }

  std::vector<WorkloadReport> reports;
  for (const auto& w : workloads) {
    std::cerr << "[perf_trajectory] " << w.name << " ..." << std::flush;
    reports.push_back(w.standalone ? w.standalone() : measure(w, opt));
    const auto& r = reports.back();
    std::cerr << " work=" << r.work << " depth=" << r.depth;
    for (const auto& p : r.points)
      std::cerr << "  t" << p.threads << "=" << p.wall_ms << "ms(x" << p.speedup << ")";
    std::cerr << "\n";
  }
  write_json(opt.out, opt, reports);
  std::cerr << "[perf_trajectory] wrote " << opt.out << "\n";
  return 0;
}
