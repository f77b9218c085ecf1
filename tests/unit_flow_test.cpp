// Tests for ParallelUnitFlow (Algorithms 1-2) — flow conservation, the
// Lemma 3.10 output guarantees, and work scaling with ||Δ||_0.

#include <gtest/gtest.h>

#include <numeric>

#include "expander/unit_flow.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {
namespace {

using graph::UndirectedGraph;
using graph::Vertex;

/// Check flow conservation: for each v,
///   source(v) + inflow - outflow = absorbed(v) + excess(v),
/// and capacity feasibility |f_e| <= cap_e.
void check_flow_valid(const UnitFlowProblem& p, const UnitFlowResult& r) {
  const auto& g = *p.g;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int64_t> net(n, 0);
  for (const graph::EdgeId e : g.live_edges()) {
    const auto ei = static_cast<std::size_t>(e);
    EXPECT_LE(std::abs(r.flow[ei]), p.cap[ei]) << "capacity violated on edge " << e;
    const auto ep = g.endpoints(e);
    net[static_cast<std::size_t>(ep.u)] -= r.flow[ei];
    net[static_cast<std::size_t>(ep.v)] += r.flow[ei];
  }
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(p.source[v] + net[v], r.absorbed[v] + r.excess[v])
        << "conservation violated at vertex " << v;
    EXPECT_GE(r.excess[v], 0);
    EXPECT_GE(r.absorbed[v], 0);
    EXPECT_LE(r.absorbed[v], p.sink[v]);
  }
}

/// Lemma 3.10 (i): an edge {u,v} with l(u) > l(v)+1 is saturated u->v.
void check_label_saturation(const UnitFlowProblem& p, const UnitFlowResult& r) {
  const auto& g = *p.g;
  for (const graph::EdgeId e : g.live_edges()) {
    const auto ep = g.endpoints(e);
    const auto lu = r.label[static_cast<std::size_t>(ep.u)];
    const auto lv = r.label[static_cast<std::size_t>(ep.v)];
    const auto f = r.flow[static_cast<std::size_t>(e)];
    const auto cap = p.cap[static_cast<std::size_t>(e)];
    if (lu > lv + 1) {
      EXPECT_EQ(f, cap) << "edge " << e << " not saturated u->v";
    }
    if (lv > lu + 1) {
      EXPECT_EQ(f, -cap) << "edge " << e << " not saturated v->u";
    }
  }
}

/// Lemma 3.10 (iii): excess only at the top level.
void check_excess_at_top(const UnitFlowProblem& p, const UnitFlowResult& r) {
  for (std::size_t v = 0; v < r.excess.size(); ++v)
    if (r.excess[v] > 0) {
      EXPECT_EQ(r.label[v], p.height) << "excess below h at " << v;
    }
}

UnitFlowProblem make_problem(const UndirectedGraph& g, std::int64_t cap,
                             std::vector<std::int64_t> source, std::vector<std::int64_t> sink,
                             std::int32_t h) {
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), cap);
  p.source = std::move(source);
  p.sink = std::move(sink);
  p.height = h;
  return p;
}

TEST(UnitFlowTest, TrivialAbsorbAtSource) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 10, {5, 0}, {10, 10}, 4);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  // Sink slicing may push part of the demand to the neighbour, but all of it
  // must be absorbed somewhere.
  EXPECT_EQ(r.absorbed[0] + r.absorbed[1], 5);
}

TEST(UnitFlowTest, PushesToNeighborWhenLocalSinkFull) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 10, {5, 0}, {0, 10}, 4);
  p.rounds = 1;  // one full sink slice => deterministic single push
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  EXPECT_EQ(r.absorbed[1], 5);
}

TEST(UnitFlowTest, CapacityLimitsLeaveExcess) {
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 2, {5, 0}, {0, 10}, 4);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.absorbed[1], 2);   // only 2 units fit through the edge
  EXPECT_EQ(r.excess[0], 3);
  check_excess_at_top(p, r);
  check_label_saturation(p, r);
}

TEST(UnitFlowTest, ZeroSinkParksAllExcess) {
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto p = make_problem(g, 100, {7, 0, 0}, {0, 0, 0}, 3);
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 7);
  check_excess_at_top(p, r);
}

TEST(UnitFlowTest, PathRoutesAcross) {
  // Source at one end, sink at the other; must route through the path.
  const int len = 6;
  UndirectedGraph g(len);
  for (Vertex i = 0; i + 1 < len; ++i) g.add_edge(i, i + 1);
  auto p = make_problem(g, 100, {}, {}, 2 * len);
  p.source.assign(len, 0);
  p.sink.assign(len, 0);
  p.source[0] = 9;
  p.sink[len - 1] = 20;
  p.rounds = 1;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_excess, 0);
  EXPECT_EQ(r.absorbed[len - 1], 9);
  // Every path edge carries the full 9 units forward.
  for (const graph::EdgeId e : g.live_edges())
    EXPECT_EQ(std::abs(r.flow[static_cast<std::size_t>(e)]), 9);
}

class UnitFlowRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(UnitFlowRandomTest, InvariantsOnExpanders) {
  par::Rng rng(1000 + GetParam());
  const Vertex n = 24;
  UndirectedGraph g = graph::random_regular_expander(n, 3, rng);  // 6-regular
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 8);
  p.source.assign(static_cast<std::size_t>(n), 0);
  p.sink.assign(static_cast<std::size_t>(n), 0);
  // Random sources on a few vertices; sinks proportional to degree.
  for (int k = 0; k < 5; ++k)
    p.source[rng.next_below(static_cast<std::uint64_t>(n))] += rng.uniform_int(1, 12);
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) p.sink[v] = g.degree(static_cast<Vertex>(v));
  p.height = 20;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  check_label_saturation(p, r);
  check_excess_at_top(p, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitFlowRandomTest, ::testing::Range(0, 12));

TEST(UnitFlowTest, SinkSlicesSumToTotalSink) {
  // With plentiful capacity and sinks, everything is absorbed across rounds.
  par::Rng rng(55);
  UndirectedGraph g = graph::random_regular_expander(16, 2, rng);
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 1000);
  p.source.assign(16, 3);
  p.sink.assign(16, 4);
  p.height = 10;
  const auto r = parallel_unit_flow(p);
  check_flow_valid(p, r);
  EXPECT_EQ(r.total_absorbed + r.total_excess, 48);
  EXPECT_EQ(r.total_excess, 0);  // 48 units vs 64 sink capacity
}

TEST(UnitFlowTest, ResumesFromInitialFlow) {
  // Saturate an edge with an initial flow; the solver must respect residuals.
  UndirectedGraph g(2);
  g.add_edge(0, 1);
  auto p = make_problem(g, 5, {3, 0}, {0, 100}, 4);
  std::vector<std::int64_t> init{5};  // edge already saturated 0->1
  const auto r = parallel_unit_flow(p, init);
  // No residual capacity 0->1: all 3 units stay as excess at vertex 0.
  EXPECT_EQ(r.excess[0], 3);
  EXPECT_EQ(r.flow[0], 5);
}

TEST(UnitFlowTest, WorkScalesWithSourceSupportNotGraphSize) {
  // Lemma 3.11: edge work ~ ||Δ||_0 * poly(h, η, 1/γ), independent of m.
  // Same tiny source on graphs 8x apart in size must cost comparable scans.
  auto scans_for = [](graph::Vertex n) {
    par::Rng rng(77);
    UndirectedGraph g = graph::random_regular_expander(n, 3, rng);
    UnitFlowProblem p;
    p.g = &g;
    p.cap.assign(g.edge_slots(), 4);
    p.source.assign(static_cast<std::size_t>(n), 0);
    p.sink.assign(static_cast<std::size_t>(n), 0);
    p.source[0] = 2;
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v)
      p.sink[v] = g.degree(static_cast<Vertex>(v));
    p.height = 12;
    p.rounds = 16;  // same round count for both sizes
    const auto r = parallel_unit_flow(p);
    EXPECT_EQ(r.total_excess, 0);
    return r.edge_scans;
  };
  const auto small = scans_for(1000);
  const auto big = scans_for(8000);
  EXPECT_LT(big, 3 * small + 1000) << "edge work must not scale with m";
  EXPECT_LT(big, 24000u) << "edge work must stay far below m";
}

// ---------- golden outputs ----------
// Exact outputs recorded from the level-by-level scan that preceded the
// occupied-level bitmask. Heights above 63 make the level bitmask span two or
// three 64-bit words. Any change here changes the expander stack's results.

struct Golden {
  std::vector<std::int64_t> flow;
  std::vector<std::int32_t> label;
  std::vector<std::int64_t> excess;
  std::vector<std::int64_t> absorbed;
  std::uint64_t edge_scans;
  std::int32_t push_relabel_calls;
};

void expect_golden(const UnitFlowResult& r, const Golden& want) {
  EXPECT_EQ(r.flow, want.flow);
  EXPECT_EQ(r.label, want.label);
  EXPECT_EQ(r.excess, want.excess);
  EXPECT_EQ(r.absorbed, want.absorbed);
  EXPECT_EQ(r.edge_scans, want.edge_scans);
  EXPECT_EQ(r.push_relabel_calls, want.push_relabel_calls);
}

/// 4-regular 12-vertex expander with far more source than sink: the excess
/// climbs through every level up to h + 1 = 71.
UnitFlowProblem golden_expander_problem(const UndirectedGraph& g) {
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 3);
  p.source.assign(12, 0);
  p.sink.assign(12, 1);
  p.source[0] = 40;
  p.source[5] = 7;
  p.sink[11] = 6;
  p.height = 70;
  return p;
}

TEST(UnitFlowGoldenTest, ExpanderAtHeight70) {
  par::Rng rng(6401);
  const UndirectedGraph g = graph::random_regular_expander(12, 2, rng);
  const auto p = golden_expander_problem(g);
  const auto r = parallel_unit_flow(p);
  expect_golden(r, {.flow = {3, -3, -1, -2, 0, -3, 0, -3, 3, 3, 0, 3,
                             -1, -2, -3, 3, -1, 1, 3, 0, 0, -3, -1, 3},
                    .label = std::vector<std::int32_t>(12, 70),
                    .excess = {27, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
                    .absorbed = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6},
                    .edge_scans = 8547,
                    .push_relabel_calls = 744});
  EXPECT_EQ(r.total_excess, 30);
  EXPECT_EQ(r.total_absorbed, 17);
}

TEST(UnitFlowGoldenTest, PathWithChordsAtHeight130) {
  // Path 0-..-9 plus a chord {0,2} and a parallel pair {3,7}: three words of
  // levels, and labels left spread over 0, 1, 129 and 130.
  UndirectedGraph g(10);
  for (Vertex v = 0; v + 1 < 10; ++v) g.add_edge(v, v + 1);
  g.add_edge(0, 2);
  g.add_edge(3, 7);
  g.add_edge(3, 7);
  auto p = make_problem(g, 2, std::vector<std::int64_t>(10, 0), std::vector<std::int64_t>(10, 0),
                        130);
  p.source[0] = 25;
  p.source[4] = 3;
  p.sink[9] = 4;
  p.sink[6] = 1;
  const auto r = parallel_unit_flow(p);
  expect_golden(r, {.flow = {2, 0, 2, -1, 0, 0, -1, 2, 2, 2, 1, 2},
                    .label = {130, 130, 130, 130, 130, 130, 130, 129, 1, 0},
                    .excess = {21, 2, 0, 0, 2, 0, 0, 0, 0, 0},
                    .absorbed = {0, 0, 0, 0, 0, 0, 1, 0, 0, 2},
                    .edge_scans = 6939,
                    .push_relabel_calls = 392});
}

TEST(UnitFlowGoldenTest, ResumeFromInitialFlowAtHeight66) {
  // Trimming's composition: the first call's flow constrains a second call
  // with doubled capacities and a fresh demand.
  par::Rng rng(6401);
  const UndirectedGraph g = graph::random_regular_expander(12, 2, rng);
  const auto first = parallel_unit_flow(golden_expander_problem(g));
  UnitFlowProblem p;
  p.g = &g;
  p.cap.assign(g.edge_slots(), 6);
  p.source.assign(12, 0);
  p.sink.assign(12, 0);
  p.source[3] = 9;
  p.source[0] = 5;
  p.sink[6] = 3;
  p.sink[9] = 1;
  p.height = 66;
  const auto r = parallel_unit_flow(p, first.flow);
  expect_golden(r, {.flow = {6, -6, -2, 1, -6, -6, -5, -6, -3, -6, -6, 1,
                             -6, -5, -6, 6, -2, -4, 4, 5, 1, -5, -6, -4},
                    .label = {66, 66, 66, 66, 66, 66, 66, 66, 65, 66, 66, 66},
                    .excess = {2, 0, 0, 2, 0, 0, 0, 0, 0, 1, 5, 0},
                    .absorbed = {0, 0, 0, 0, 0, 0, 3, 0, 0, 1, 0, 0},
                    .edge_scans = 8074,
                    .push_relabel_calls = 270});
}

}  // namespace
}  // namespace pmcf::expander
