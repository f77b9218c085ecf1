#include "probes.hpp"

#include <cmath>
#include <vector>

#include "baselines/ssp.hpp"
#include "core/solver_context.hpp"
#include "expander/static_decomp.hpp"
#include "expander/unit_flow.hpp"
#include "graph/ungraph.hpp"
#include "linalg/incidence.hpp"
#include "linalg/laplacian.hpp"
#include "linalg/leverage.hpp"
#include "linalg/lewis.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sdd_solver.hpp"
#include "mcf/certify.hpp"
#include "parallel/rng.hpp"

namespace perfbench {

using namespace pmcf;

namespace {

core::ContextOptions wall_context(std::uint64_t seed, par::ThreadPool* pool) {
  core::ContextOptions o;
  o.seed = seed;
  o.instrument = false;
  o.pool = pool;
  o.use_global_pool = false;
  return o;
}

}  // namespace

double probe_mcf(const SpanAt& at, const graph::Digraph& g, mcf::SolveOptions opts,
               par::ThreadPool* pool, Means& layers) {
  opts.certify = false;
  core::SolverContext ctx(wall_context(opts.ipm.seed, pool));
  SpanScope span(*at.tracer, "mcf.solve", at.parent, at.request);
  const mcf::MinCostFlowResult r =
      mcf::min_cost_max_flow(ctx, g, 0, g.num_vertices() - 1, opts);
  const double ms = span.end();
  at.tracer->count(span.id(), "ipm_iterations", r.stats.ipm_iterations);
  layers.add("mcf.solve_ms", ms);
  return ms;
}

double probe_certify(const SpanAt& at, const graph::Digraph& g,
                   const mcf::MinCostFlowResult& answer, Means& layers) {
  SpanScope span(*at.tracer, "certify", at.parent, at.request);
  const mcf::CertifyReport rep = mcf::certify_max_flow(g, 0, g.num_vertices() - 1,
                                                       answer.arc_flow, answer.flow_value,
                                                       answer.cost);
  const double ms = span.end();
  at.tracer->count(span.id(), "certified", rep.certified ? 1 : 0);
  layers.add("certify.ms", ms);
  return ms;
}

double probe_ssp(const SpanAt& at, const graph::Digraph& g, Means& layers) {
  SpanScope span(*at.tracer, "baselines.ssp", at.parent, at.request);
  const baselines::McmfResult r = baselines::ssp_min_cost_max_flow(g, 0, g.num_vertices() - 1);
  const double ms = span.end();
  at.tracer->count(span.id(), "flow", static_cast<double>(r.flow));
  layers.add("baselines.ssp_ms", ms);
  return ms;
}

void probe_linalg(const SpanAt& at, const graph::Digraph& g, int sketch_dim,
                  par::ThreadPool* pool, std::uint64_t seed, Means& layers) {
  core::SolverContext ctx(wall_context(seed, pool));
  const core::ContextScope scope(ctx);
  par::Rng rng(seed);

  const linalg::IncidenceOp a(g);
  linalg::Vec d(a.rows());
  linalg::Vec v(a.rows());
  for (std::size_t e = 0; e < d.size(); ++e) {
    d[e] = static_cast<double>(g.arc(static_cast<graph::EdgeId>(e)).cap);
    v[e] = std::sqrt(d[e]);
  }
  const linalg::Csr lap = linalg::reduced_laplacian(g, d, a.dropped());
  linalg::SddPreconditioner pc;
  pc.build(lap, linalg::PrecondKind::kIncompleteCholesky);
  const auto random_rhs = [&] {
    linalg::Vec b(a.cols());
    for (auto& x : b) x = rng.next_double() - 0.5;
    b[static_cast<std::size_t>(a.dropped())] = 0.0;
    return b;
  };
  const linalg::SolveOptions sopts{.tolerance = 1e-8, .max_iters = 2000};

  {
    const linalg::Vec b = random_rhs();
    SpanScope span(*at.tracer, "linalg.sdd", at.parent, at.request);
    const linalg::SolveResult r = linalg::solve_sdd(ctx, lap, b, pc, sopts);
    const double ms = span.end();
    at.tracer->count(span.id(), "iterations", r.iterations);
    layers.add("linalg.sdd_ms", ms);
    layers.add("linalg.sdd_iterations", r.iterations);
  }
  {
    std::vector<linalg::Vec> rhs;
    for (int k = 0; k < sketch_dim; ++k) rhs.push_back(random_rhs());
    SpanScope span(*at.tracer, "linalg.sdd_multi", at.parent, at.request);
    const auto rs = linalg::solve_sdd_multi(ctx, lap, rhs, pc, sopts);
    const double ms = span.end();
    at.tracer->count(span.id(), "columns", static_cast<double>(rs.size()));
    layers.add("linalg.sdd_multi_ms", ms);
  }
  {
    linalg::LeverageOptions lopts;
    lopts.sketch_dim = sketch_dim;
    SpanScope span(*at.tracer, "linalg.leverage", at.parent, at.request);
    const linalg::Vec sigma = linalg::leverage_scores(ctx, a, v, rng, lopts);
    layers.add("linalg.leverage_ms", span.end());
    at.tracer->count(span.id(), "rows", static_cast<double>(sigma.size()));
  }
  {
    linalg::LewisOptions wopts;
    wopts.leverage.sketch_dim = sketch_dim;
    SpanScope span(*at.tracer, "linalg.lewis", at.parent, at.request);
    const linalg::Vec tau = linalg::ipm_lewis_weights(ctx, a, v, rng, wopts);
    layers.add("linalg.lewis_ms", span.end());
    at.tracer->count(span.id(), "rows", static_cast<double>(tau.size()));
  }
}

void probe_expander(const SpanAt& at, const graph::Digraph& g, std::uint64_t seed,
                    Means& layers) {
  const graph::Vertex n = g.num_vertices();
  graph::UndirectedGraph skel(n);
  for (graph::EdgeId e = 0; e < g.num_arcs(); ++e) {
    const graph::Arc& arc = g.arc(e);
    if (arc.from != arc.to) skel.add_edge(arc.from, arc.to);
  }
  par::Rng rng(seed);
  {
    SpanScope span(*at.tracer, "expander.vertex_decomp", at.parent, at.request);
    const auto parts = expander::vertex_expander_decomposition(skel, rng);
    layers.add("expander.vertex_decomp_ms", span.end());
    at.tracer->count(span.id(), "clusters", static_cast<double>(parts.size()));
  }
  {
    SpanScope span(*at.tracer, "expander.edge_decomp", at.parent, at.request);
    const auto parts = expander::edge_expander_decomposition(skel, rng);
    layers.add("expander.edge_decomp_ms", span.end());
    at.tracer->count(span.id(), "clusters", static_cast<double>(parts.size()));
  }
  {
    // The shape of the unit-flow calls trimming makes: a few concentrated
    // sources against half-degree sinks, bounded height.
    expander::UnitFlowProblem p;
    p.g = &skel;
    p.cap.assign(skel.edge_slots(), 8);
    p.source.assign(static_cast<std::size_t>(n), 0);
    p.sink.assign(static_cast<std::size_t>(n), 0);
    for (int k = 0; k < 2; ++k) p.source[rng.next_below(static_cast<std::uint64_t>(n))] += 48;
    for (graph::Vertex u = 0; u < n; ++u) p.sink[static_cast<std::size_t>(u)] = skel.degree(u) / 2;
    p.height = 24;
    SpanScope span(*at.tracer, "expander.unit_flow", at.parent, at.request);
    const expander::UnitFlowResult r = expander::parallel_unit_flow(p);
    layers.add("expander.unit_flow_ms", span.end());
    at.tracer->count(span.id(), "edge_scans", static_cast<double>(r.edge_scans));
  }
}

}  // namespace perfbench
