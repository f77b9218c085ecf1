// Tests for the IPM pipeline: barrier, reference path following, rounding
// repair and the public min-cost flow API (Theorem 1.2), cross-checked
// against the SSP oracle on random instance sweeps.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ssp.hpp"
#include "core/solver_context.hpp"
#include "graph/generators.hpp"
#include "ipm/barrier.hpp"
#include "ipm/reference_ipm.hpp"
#include "ipm/rounding.hpp"
#include "mcf/min_cost_flow.hpp"
#include "parallel/rng.hpp"
#include "repair_gadget.hpp"

namespace pmcf {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

TEST(BarrierTest, DerivativesAtMidpointAndSkew) {
  const Vec x{2.0, 1.0};
  const Vec u{4.0, 4.0};
  const Vec g = ipm::barrier_grad(x, u);
  const Vec h = ipm::barrier_hess(x, u);
  EXPECT_DOUBLE_EQ(g[0], 0.0);               // midpoint: -1/2 + 1/2
  EXPECT_DOUBLE_EQ(g[1], -1.0 + 1.0 / 3.0);  // -1/1 + 1/3
  EXPECT_DOUBLE_EQ(h[0], 0.25 + 0.25);
  EXPECT_DOUBLE_EQ(h[1], 1.0 + 1.0 / 9.0);
  EXPECT_TRUE(ipm::is_interior(x, u));
  EXPECT_FALSE(ipm::is_interior({0.0, 1.0}, u));
  EXPECT_FALSE(ipm::is_interior({2.0, 4.0}, u));
}

TEST(RoundingTest, ExactInputPassesThrough) {
  // A feasible integral circulation must survive rounding untouched when
  // no negative cycle exists.
  Digraph g(3);
  g.add_arc(0, 1, 4, 1);
  g.add_arc(1, 2, 4, 1);
  g.add_arc(2, 0, 4, 1);
  const Vec x{0.0, 0.0, 0.0};
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.cycles_canceled, 0);
}

TEST(RoundingTest, NegativeCycleGetsCanceled) {
  // Circulation with total negative cost must be saturated by the repair.
  Digraph g(3);
  g.add_arc(0, 1, 4, -2);
  g.add_arc(1, 2, 4, -2);
  g.add_arc(2, 0, 4, 1);
  const Vec x{0.0, 0.0, 0.0};
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.flow, (std::vector<std::int64_t>{4, 4, 4}));
  EXPECT_EQ(r.cost, -12);
  EXPECT_GE(r.cycles_canceled, 1);
}

TEST(RoundingTest, ImbalanceIsRepaired) {
  // Fractional x that rounds to an infeasible circulation: the repair must
  // restore A^T x = b.
  Digraph g(3);
  g.add_arc(0, 1, 4, 1);
  g.add_arc(1, 2, 4, 1);
  g.add_arc(2, 0, 4, 1);
  const Vec x{2.4, 1.6, 2.0};  // rounds to {2, 2, 2}: feasible by luck; use skew
  const Vec x2{2.6, 1.4, 2.0};  // rounds to {3, 1, 2}: imbalanced
  const auto r = ipm::round_and_repair(pmcf::core::default_context(), g, {0, 0, 0}, x2);
  EXPECT_TRUE(r.feasible);
  std::vector<std::int64_t> net(3, 0);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& arc = g.arc(static_cast<graph::EdgeId>(k));
    net[static_cast<std::size_t>(arc.to)] += r.flow[k];
    net[static_cast<std::size_t>(arc.from)] -= r.flow[k];
  }
  EXPECT_EQ(net, (std::vector<std::int64_t>{0, 0, 0}));
  (void)x;
}

TEST(RoundingTest, CancellationBudgetStopsTheRepair) {
  // The gadget needs kRepairGadgetCancels cancellations from the zero flow.
  const Digraph g = testing_gadget::repair_gadget(/*abs_costs=*/false);
  const Vec zero(static_cast<std::size_t>(g.num_arcs()), 0.0);
  const std::vector<std::int64_t> b(4, 0);
  auto& ctx = pmcf::core::default_context();

  const auto unbounded = ipm::round_and_repair(ctx, g, b, zero);
  ASSERT_EQ(unbounded.status, SolveStatus::kOk);
  EXPECT_EQ(unbounded.cycles_canceled, testing_gadget::kRepairGadgetCancels);
  EXPECT_GT(unbounded.cycles_canceled, g.num_arcs());

  // An explicit unbounded budget, or one that is just enough, changes nothing.
  for (const std::int64_t budget :
       {ipm::kUnboundedCycleCancels, testing_gadget::kRepairGadgetCancels}) {
    const auto same = ipm::round_and_repair(ctx, g, b, zero, budget);
    EXPECT_EQ(same.status, SolveStatus::kOk);
    EXPECT_EQ(same.flow, unbounded.flow);
    EXPECT_EQ(same.cost, unbounded.cost);
    EXPECT_EQ(same.cycles_canceled, unbounded.cycles_canceled);
  }

  // A finite budget stops at it: exactly that many cycles canceled, and the
  // cycle left over is reported as kIterationLimit, not as an optimum.
  for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{1}, std::int64_t{g.num_arcs()},
                                    testing_gadget::kRepairGadgetCancels - 1}) {
    const auto capped = ipm::round_and_repair(ctx, g, b, zero, budget);
    EXPECT_EQ(capped.status, SolveStatus::kIterationLimit) << budget;
    EXPECT_EQ(capped.cycles_canceled, budget);
  }
}

ipm::IpmOptions fast_ipm_options() {
  ipm::IpmOptions o;
  o.mu_end = 1e-3;
  o.max_iters = 4000;
  o.leverage.sketch_dim = 12;
  o.leverage.solve.tolerance = 1e-8;
  o.solve.tolerance = 1e-10;
  return o;
}

TEST(ReferenceIpmTest, StaysFeasibleAndCentered) {
  par::Rng rng(81);
  const Digraph g = graph::random_flow_network(16, 60, 8, 8, rng);
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, 15, opts);
  EXPECT_LT(res.stats.final_centrality, 1.0);
  EXPECT_GT(res.stats.ipm_iterations, 10);
}

TEST(MinCostFlowTest, MatchesSspOnDiamond) {
  Digraph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(0, 2, 2, 3);
  g.add_arc(2, 3, 2, 3);
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, 3, opts);
  EXPECT_EQ(res.flow_value, 4);
  EXPECT_EQ(res.cost, 16);
}

class MinCostFlowSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinCostFlowSweep, ExactlyMatchesSspOracle) {
  par::Rng rng(900 + GetParam());
  const Vertex n = 12 + static_cast<Vertex>(GetParam());
  const std::int64_t m = 4 * n;
  const Digraph g = graph::random_flow_network(n, m, 6, 6, rng);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, n - 1);

  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
  EXPECT_EQ(res.flow_value, oracle.flow) << "flow value mismatch";
  EXPECT_EQ(res.cost, oracle.cost) << "cost mismatch";
  // Result must be a genuine feasible flow.
  std::vector<std::int64_t> net(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < res.arc_flow.size(); ++k) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(k));
    EXPECT_GE(res.arc_flow[k], 0);
    EXPECT_LE(res.arc_flow[k], a.cap);
    net[static_cast<std::size_t>(a.to)] += res.arc_flow[k];
    net[static_cast<std::size_t>(a.from)] -= res.arc_flow[k];
  }
  for (Vertex v = 1; v + 1 < n; ++v) EXPECT_EQ(net[static_cast<std::size_t>(v)], 0);
  EXPECT_EQ(net[0], -res.flow_value);
  EXPECT_EQ(net[static_cast<std::size_t>(n - 1)], res.flow_value);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinCostFlowSweep, ::testing::Range(0, 8));

TEST(MinCostFlowTest, ZeroCapacityArcsStayOutOfTheLp) {
  // The barrier needs 0 < x < u, so a zero-capacity arc must not reach the
  // IPM; both IPM tiers answer without degrading and report 0 on it.
  Digraph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(1, 2, 0, 1);
  g.add_arc(0, 2, 2, 3);
  g.add_arc(2, 3, 2, 3);
  for (const mcf::Method method : {mcf::Method::kReferenceIpm, mcf::Method::kRobustIpm}) {
    mcf::SolveOptions opts;
    opts.method = method;
    opts.allow_degradation = false;
    opts.ipm = fast_ipm_options();
    const auto res = mcf::min_cost_max_flow(g, 0, 3, opts);
    ASSERT_EQ(res.status, SolveStatus::kOk) << mcf::to_string(method) << ": " << res.failure_detail;
    EXPECT_TRUE(res.stats.certified);
    EXPECT_EQ(res.flow_value, 4);
    EXPECT_EQ(res.cost, 16);
    EXPECT_EQ(res.arc_flow[2], 0);
  }
}

TEST(MinCostFlowTest, CombinatorialBFlowHandlesNegativeCycles) {
  // 1 -> 2 -> 1 is a negative cycle. SSP alone cannot price it and used to
  // report the routable demand as infeasible.
  Digraph g(3);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 2, 2, 1);
  g.add_arc(2, 1, 1, -3);
  const std::vector<std::int64_t> b{-1, 0, 1};
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  opts.allow_degradation = false;
  const auto res = mcf::min_cost_b_flow(g, b, opts);
  ASSERT_EQ(res.status, SolveStatus::kOk) << res.failure_detail;
  EXPECT_TRUE(res.stats.certified);
  EXPECT_EQ(res.arc_flow, (std::vector<std::int64_t>{1, 2, 1}));
  EXPECT_EQ(res.cost, 0);
}

TEST(MinCostFlowTest, CombinatorialMaxFlowHandlesNegativeCycles) {
  // 1 -> 2 -> 1 is a negative cycle, so plain SSP returns no flow; the
  // combinatorial tier must still answer, certified and cost-equal to the
  // IPM tiers.
  Digraph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 2, 2, -3);
  g.add_arc(2, 1, 1, 1);
  g.add_arc(2, 3, 2, 1);
  g.add_arc(0, 2, 1, 4);
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  opts.allow_degradation = false;
  opts.method = mcf::Method::kCombinatorial;
  const auto comb = mcf::min_cost_max_flow(g, 0, 3, opts);
  ASSERT_EQ(comb.status, SolveStatus::kOk) << comb.failure_detail;
  EXPECT_TRUE(comb.stats.certified);
  EXPECT_EQ(comb.stats.answered_by, mcf::Method::kCombinatorial);
  EXPECT_EQ(comb.flow_value, 2);
  for (const mcf::Method m : {mcf::Method::kReferenceIpm, mcf::Method::kRobustIpm}) {
    opts.method = m;
    const auto ipm = mcf::min_cost_max_flow(g, 0, 3, opts);
    ASSERT_EQ(ipm.status, SolveStatus::kOk) << mcf::to_string(m) << ": " << ipm.failure_detail;
    EXPECT_TRUE(ipm.stats.certified) << mcf::to_string(m);
    EXPECT_EQ(ipm.flow_value, comb.flow_value) << mcf::to_string(m);
    EXPECT_EQ(ipm.cost, comb.cost) << mcf::to_string(m);
  }
}

TEST(MinCostFlowTest, CombinatorialMethodDelegates) {
  par::Rng rng(82);
  const Digraph g = graph::random_flow_network(15, 60, 5, 5, rng);
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  const auto res = mcf::min_cost_max_flow(g, 0, 14, opts);
  const auto oracle = baselines::ssp_min_cost_max_flow(g, 0, 14);
  EXPECT_EQ(res.flow_value, oracle.flow);
  EXPECT_EQ(res.cost, oracle.cost);
}

TEST(MinCostFlowTest, BFlowRoutesDemands) {
  // 0 supplies 3 units (net inflow -3), 4 demands 3 (net inflow +3).
  par::Rng rng(83);
  Digraph g(5);
  for (Vertex i = 0; i + 1 < 5; ++i) g.add_arc(i, i + 1, 5, 2);
  g.add_arc(0, 4, 2, 20);
  std::vector<std::int64_t> b{-3, 0, 0, 0, 3};
  mcf::SolveOptions opts;
  opts.ipm = fast_ipm_options();
  const auto res = mcf::min_cost_b_flow(g, b, opts);
  EXPECT_EQ(res.flow_value, 3);
  const auto comb = mcf::min_cost_b_flow(g, b, {.method = mcf::Method::kCombinatorial});
  EXPECT_EQ(comb.flow_value, 3);
  EXPECT_EQ(res.cost, comb.cost);
}

TEST(IpmIterationScalingTest, IterationsGrowSlowlyWithN) {
  // The headline claim: Õ(√n) iterations. Verify the iteration count grows
  // clearly sublinearly when n quadruples.
  auto iters_for = [](Vertex n, std::uint64_t seed) {
    par::Rng rng(seed);
    const Digraph g = graph::random_flow_network(n, 4 * n, 4, 4, rng);
    mcf::SolveOptions opts;
    opts.ipm = fast_ipm_options();
    opts.ipm.leverage.sketch_dim = 8;
    const auto res = mcf::min_cost_max_flow(g, 0, n - 1, opts);
    return res.stats.ipm_iterations;
  };
  const auto small = iters_for(12, 84);
  const auto big = iters_for(48, 85);
  // 4x vertices => ~2x iterations for sqrt scaling; allow generous slack
  // but reject linear growth.
  EXPECT_LT(big, 3 * small) << "iterations should scale ~sqrt(n), small=" << small
                            << " big=" << big;
}

}  // namespace
}  // namespace pmcf
