#pragma once
// Layer probes: direct calls into one layer's public functions on a
// request's instance, each recorded as a span that is a sibling of the
// Engine span under the request's root span. Each probe adds its time to
// the named layer metric in `layers`; the single-span probes also return
// their time in ms.

#include <cstdint>

#include "bench.hpp"
#include "graph/digraph.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

/// Where a probe's span hangs: parent span and request id.
struct SpanAt {
  Tracer* tracer = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// mcf.solve_ms: mcf::min_cost_max_flow on the instance with `opts` and
/// certification off, in wall-clock mode on `pool` (nullptr = serial).
double probe_mcf(const SpanAt& at, const pmcf::graph::Digraph& g, pmcf::mcf::SolveOptions opts,
               pmcf::par::ThreadPool* pool, Means& layers);

/// certify.ms: mcf::certify_max_flow on an answer's arc flow.
double probe_certify(const SpanAt& at, const pmcf::graph::Digraph& g,
                   const pmcf::mcf::MinCostFlowResult& answer, Means& layers);

/// baselines.ssp_ms: baselines::ssp_min_cost_max_flow on the instance.
double probe_ssp(const SpanAt& at, const pmcf::graph::Digraph& g, Means& layers);

/// linalg.*: solve_sdd with IC(0), solve_sdd_multi over `sketch_dim`
/// columns, leverage scores and Lewis weights on the instance's reduced
/// Laplacian (arc weights = capacities) and incidence, on `pool`.
void probe_linalg(const SpanAt& at, const pmcf::graph::Digraph& g, int sketch_dim,
                  pmcf::par::ThreadPool* pool, std::uint64_t seed, Means& layers);

/// expander.*: static vertex and edge expander decompositions and one
/// parallel unit flow on the instance's undirected skeleton.
void probe_expander(const SpanAt& at, const pmcf::graph::Digraph& g, std::uint64_t seed,
                    Means& layers);

}  // namespace perfbench
