#include "ipm/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/ssp.hpp"
#include "parallel/scheduler.hpp"

namespace pmcf::ipm {

namespace {

using graph::Vertex;

constexpr std::int64_t kInfCost = std::numeric_limits<std::int64_t>::max() / 4;

/// Residual graph over integral flow f: arc 2k forward (cap u-f, cost c),
/// arc 2k+1 backward (cap f, cost -c).
struct Residual {
  const graph::Digraph* g;
  std::vector<std::int64_t>* f;

  [[nodiscard]] std::int64_t cap(std::size_t a) const {
    const std::size_t k = a / 2;
    const auto& arc = g->arc(static_cast<graph::EdgeId>(k));
    return (a % 2 == 0) ? arc.cap - (*f)[k] : (*f)[k];
  }
  [[nodiscard]] std::int64_t cost(std::size_t a) const {
    const std::size_t k = a / 2;
    const auto& arc = g->arc(static_cast<graph::EdgeId>(k));
    return (a % 2 == 0) ? arc.cost : -arc.cost;
  }
  [[nodiscard]] Vertex tail(std::size_t a) const {
    const auto& arc = g->arc(static_cast<graph::EdgeId>(a / 2));
    return (a % 2 == 0) ? arc.from : arc.to;
  }
  [[nodiscard]] Vertex head(std::size_t a) const {
    const auto& arc = g->arc(static_cast<graph::EdgeId>(a / 2));
    return (a % 2 == 0) ? arc.to : arc.from;
  }
  void push(std::size_t a, std::int64_t amount) const {
    const std::size_t k = a / 2;
    (*f)[k] += (a % 2 == 0) ? amount : -amount;
  }
};

/// Find a negative residual cycle and, when `cancel` is set, push its
/// bottleneck around it. Returns true if a cycle was found.
bool cancel_one_negative_cycle(const Residual& r, bool cancel) {
  const auto n = static_cast<std::size_t>(r.g->num_vertices());
  const std::size_t arcs = 2 * static_cast<std::size_t>(r.g->num_arcs());
  // Bellman-Ford from a virtual source (dist 0 everywhere).
  std::vector<std::int64_t> dist(n, 0);
  std::vector<std::int64_t> pre(n, -1);
  std::int64_t touched = -1;
  for (std::size_t round = 0; round < n; ++round) {
    touched = -1;
    for (std::size_t a = 0; a < arcs; ++a) {
      if (r.cap(a) <= 0) continue;
      const auto u = static_cast<std::size_t>(r.tail(a));
      const auto v = static_cast<std::size_t>(r.head(a));
      if (dist[u] + r.cost(a) < dist[v]) {
        dist[v] = dist[u] + r.cost(a);
        pre[v] = static_cast<std::int64_t>(a);
        touched = static_cast<std::int64_t>(v);
      }
    }
    if (touched < 0) return false;
  }
  if (!cancel) return true;
  // A relaxation in round n implies a negative cycle; walk n steps back to
  // land inside it, then trace it out.
  std::size_t v = static_cast<std::size_t>(touched);
  for (std::size_t step = 0; step < n; ++step)
    v = static_cast<std::size_t>(r.tail(static_cast<std::size_t>(pre[v])));
  std::vector<std::size_t> cycle;
  std::size_t w = v;
  do {
    const auto a = static_cast<std::size_t>(pre[w]);
    cycle.push_back(a);
    w = static_cast<std::size_t>(r.tail(a));
  } while (w != v);
  std::int64_t bottleneck = kInfCost;
  for (const std::size_t a : cycle) bottleneck = std::min(bottleneck, r.cap(a));
  for (const std::size_t a : cycle) r.push(a, bottleneck);
  return true;
}

}  // namespace

RoundRepairResult round_and_repair(core::SolverContext& ctx, const graph::Digraph& g,
                                   const std::vector<std::int64_t>& b,
                                   const linalg::Vec& x_frac, std::int64_t max_cycle_cancels) {
  // Callers may invoke this without installing bindings (e.g. direct tests);
  // pin the charges to the supplied context either way.
  const core::ContextScope scope(ctx);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto m = static_cast<std::size_t>(g.num_arcs());
  RoundRepairResult res;
  res.flow.assign(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(k));
    // llround of a non-finite or out-of-range double is UB; sanitize first.
    // A garbage entry only costs repair work, never correctness.
    const double xk = std::isfinite(x_frac[k])
                          ? std::clamp(x_frac[k], 0.0, static_cast<double>(arc.cap))
                          : 0.0;
    res.flow[k] = std::clamp<std::int64_t>(std::llround(xk), 0, arc.cap);
  }
  par::charge(m, 1);

  // Imbalance δ_v = b_v - (A^T x̂)_v; route it through the residual graph.
  std::vector<std::int64_t> delta(n, 0);
  for (std::size_t v = 0; v < n; ++v) delta[v] = b[v];
  for (std::size_t k = 0; k < m; ++k) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(k));
    delta[static_cast<std::size_t>(arc.to)] -= res.flow[k];
    delta[static_cast<std::size_t>(arc.from)] += res.flow[k];
  }
  std::int64_t total_pos = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (delta[v] > 0) total_pos += delta[v];
  res.imbalance_routed = total_pos;
  par::charge(m + n, par::ceil_log2(std::max<std::size_t>(m + n, 2)));

  // Cancel negative residual cycles until none remain or the budget is
  // spent (a cycle found past it is left in place). Each cancellation is a
  // full Bellman-Ford, so the lifecycle poll sits at per-cycle granularity
  // (DESIGN.md §11). False when the repair must stop; res.status says why.
  const Residual r{&g, &res.flow};
  const auto cancel_cycles = [&] {
    while (cancel_one_negative_cycle(r, res.cycles_canceled < max_cycle_cancels)) {
      if (res.cycles_canceled >= max_cycle_cancels) {
        res.status = SolveStatus::kIterationLimit;
        return false;
      }
      ++res.cycles_canceled;
      if (const SolveStatus ls = ctx.check_lifecycle(); ls != SolveStatus::kOk) {
        res.status = ls;
        return false;
      }
    }
    return true;
  };

  // Cancel negative cycles first: cycles do not change A^T x, and the SSP
  // router below requires a residual graph free of negative cycles.
  if (!cancel_cycles()) return res;

  if (total_pos > 0) {
    // Build the residual as a digraph and route δ with SSP: a path from a
    // (δ_a < 0: too much inflow) to b (δ_b > 0) raises (A^T x)_b and lowers
    // (A^T x)_a, exactly what is needed.
    graph::Digraph residual(static_cast<Vertex>(n));
    std::vector<std::size_t> res_to_half;  // residual arc -> half-arc index
    for (std::size_t k = 0; k < m; ++k) {
      const auto& arc = g.arc(static_cast<graph::EdgeId>(k));
      if (arc.cap - res.flow[k] > 0) {
        residual.add_arc(arc.from, arc.to, arc.cap - res.flow[k], arc.cost);
        res_to_half.push_back(2 * k);
      }
      if (res.flow[k] > 0) {
        residual.add_arc(arc.to, arc.from, res.flow[k], -arc.cost);
        res_to_half.push_back(2 * k + 1);
      }
    }
    std::vector<std::int64_t> route_b(n, 0);
    for (std::size_t v = 0; v < n; ++v) route_b[v] = -delta[v];  // supply at δ<0
    const auto routed = baselines::ssp_min_cost_b_flow(residual, route_b);
    res.feasible = (routed.flow == total_pos);
    for (std::size_t a = 0; a < routed.arc_flow.size(); ++a)
      if (routed.arc_flow[a] > 0) r.push(res_to_half[a], routed.arc_flow[a]);
  } else {
    res.feasible = true;
  }

  // Optimality: cancel negative residual cycles until none remain.
  if (!cancel_cycles()) return res;

  for (std::size_t k = 0; k < m; ++k)
    res.cost += res.flow[k] * g.arc(static_cast<graph::EdgeId>(k)).cost;
  par::charge(m, par::ceil_log2(std::max<std::size_t>(m, 2)));
  res.status = res.feasible ? SolveStatus::kOk : SolveStatus::kInfeasible;
  return res;
}

}  // namespace pmcf::ipm
