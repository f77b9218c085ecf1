// Tests for Trimming (Algorithm 3 / Lemma 3.7): certification on intact
// expanders, removal of weakly attached appendages, and removed-volume
// bounds proportional to the boundary size.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "expander/defs.hpp"
#include "expander/trimming.hpp"
#include "expander/trimming_engine.hpp"
#include "graph/generators.hpp"
#include "parallel/rng.hpp"

namespace pmcf::expander {
namespace {

using graph::EdgeId;
using graph::UndirectedGraph;
using graph::Vertex;

TEST(TrimmingTest, IntactExpanderKeepsEverything) {
  // No deletions, no boundary: trimming must certify A' = A immediately.
  par::Rng rng(21);
  UndirectedGraph g = graph::random_regular_expander(40, 3, rng);
  std::vector<char> in_a(40, 1);
  std::vector<std::int64_t> boundary(40, 0);
  const auto r = trimming(g, in_a, boundary, {.phi = 0.1});
  EXPECT_TRUE(r.removed.empty());
  EXPECT_EQ(r.leftover_excess, 0);
  EXPECT_EQ(r.total_injected, 0);
}

TEST(TrimmingTest, SmallDeletionKeepsMostOfExpander) {
  // Delete a few edges from a solid expander; the flow certificate should
  // route the demand and keep (almost) every vertex.
  par::Rng rng(22);
  UndirectedGraph g = graph::random_regular_expander(60, 4, rng);  // 8-regular
  std::vector<std::int64_t> boundary(60, 0);
  // Delete 4 random edges; each endpoint gains boundary demand.
  auto live = g.live_edges();
  for (int k = 0; k < 4; ++k) {
    const EdgeId e = live[rng.next_below(live.size())];
    if (!g.is_live(e)) continue;
    const auto ep = g.endpoints(e);
    boundary[static_cast<std::size_t>(ep.u)] += 1;
    boundary[static_cast<std::size_t>(ep.v)] += 1;
    g.delete_edge(e);
  }
  std::vector<char> in_a(60, 1);
  const auto r = trimming(g, in_a, boundary, {.phi = 0.1});
  EXPECT_EQ(r.leftover_excess, 0) << "demand must be fully routed";
  EXPECT_LT(r.removed_volume, 200) << "removed volume must be O(boundary/phi)";
}

TEST(TrimmingTest, CutsOffWeaklyAttachedAppendage) {
  // Expander core + a path appendage attached by a single edge, where the
  // appendage lost most of its internal edges: the appendage cannot absorb
  // its boundary demand and must be (mostly) trimmed away.
  par::Rng rng(23);
  const Vertex core_n = 30;
  const Vertex tail_n = 6;
  UndirectedGraph g(core_n + tail_n);
  {
    UndirectedGraph core = graph::random_regular_expander(core_n, 3, rng);
    for (const EdgeId e : core.live_edges()) {
      const auto ep = core.endpoints(e);
      g.add_edge(ep.u, ep.v);
    }
  }
  // Tail: a path core_n .. core_n+tail_n-1 hanging off vertex 0.
  g.add_edge(0, core_n);
  for (Vertex i = 0; i + 1 < tail_n; ++i) g.add_edge(core_n + i, core_n + i + 1);
  // Claim deletion damage on the tail tip: demand far exceeding the tail's
  // single-edge attachment capacity, yet within the core's absorption
  // capacity once the tail is gone (Lemma 3.7's |∂A| <= φm precondition).
  std::vector<std::int64_t> boundary(static_cast<std::size_t>(core_n + tail_n), 0);
  boundary[static_cast<std::size_t>(core_n + tail_n - 1)] = 4;
  std::vector<char> in_a(static_cast<std::size_t>(core_n + tail_n), 1);
  const auto r = trimming(g, in_a, boundary, {.phi = 0.15});
  // The tail tip (degree 1, sink budget 0) cannot absorb demand 12*cap:
  // something must be removed, and the core must survive.
  EXPECT_FALSE(r.removed.empty());
  std::int64_t core_removed = 0;
  for (const Vertex v : r.removed)
    if (v < core_n) ++core_removed;
  EXPECT_LE(core_removed, 3) << "expander core should survive trimming";
}

TEST(TrimmingTest, FlowRespectsCapacities) {
  par::Rng rng(24);
  UndirectedGraph g = graph::random_regular_expander(40, 3, rng);
  std::vector<std::int64_t> boundary(40, 0);
  boundary[0] = 3;
  boundary[7] = 2;
  std::vector<char> in_a(40, 1);
  const TrimmingOptions opts{.phi = 0.1};
  const auto r = trimming(g, in_a, boundary, opts);
  const auto cap = static_cast<std::int64_t>(std::ceil(2.0 / opts.phi));
  for (const EdgeId e : g.live_edges())
    EXPECT_LE(std::abs(r.flow[static_cast<std::size_t>(e)]), cap);
}

TEST(TrimmingTest, RemainingGraphIsStillAnExpander) {
  // Lemma 3.7 / 3.9: after trimming, H[A'] should still have decent
  // expansion. Verified exactly on a small instance.
  par::Rng rng(25);
  UndirectedGraph g = graph::random_regular_expander(16, 3, rng);
  std::vector<std::int64_t> boundary(16, 0);
  auto live = g.live_edges();
  for (int k = 0; k < 3; ++k) {
    const EdgeId e = live[rng.next_below(live.size())];
    if (!g.is_live(e)) continue;
    const auto ep = g.endpoints(e);
    boundary[static_cast<std::size_t>(ep.u)] += 1;
    boundary[static_cast<std::size_t>(ep.v)] += 1;
    g.delete_edge(e);
  }
  std::vector<char> in_a(16, 1);
  const auto r = trimming(g, in_a, boundary, {.phi = 0.1});
  EXPECT_EQ(r.leftover_excess, 0);
  // Build the kept induced subgraph and check expansion exactly.
  std::vector<Vertex> kept;
  for (Vertex v = 0; v < 16; ++v)
    if (r.in_a_prime[static_cast<std::size_t>(v)]) kept.push_back(v);
  const auto sub = induced_subgraph(g, kept);
  const auto cut = exact_min_expansion_cut(sub.graph);
  if (cut) {
    EXPECT_GE(cut->expansion(), 0.05) << "kept subgraph lost expansion";
  }
}

class TrimmingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrimmingSweep, RemovedVolumeScalesWithBoundary) {
  const auto [seed, deletions] = GetParam();
  par::Rng rng(3000 + seed);
  UndirectedGraph g = graph::random_regular_expander(80, 4, rng);
  std::vector<std::int64_t> boundary(80, 0);
  auto live = g.live_edges();
  std::int64_t deleted = 0;
  for (int k = 0; k < deletions; ++k) {
    const graph::EdgeId e = live[rng.next_below(live.size())];
    if (!g.is_live(e)) continue;
    const auto ep = g.endpoints(e);
    boundary[static_cast<std::size_t>(ep.u)] += 1;
    boundary[static_cast<std::size_t>(ep.v)] += 1;
    g.delete_edge(e);
    ++deleted;
  }
  std::vector<char> in_a(80, 1);
  const auto r = trimming(g, in_a, boundary, {.phi = 0.1});
  EXPECT_EQ(r.leftover_excess, 0);
  // Õ(1/phi) * boundary with generous constants.
  EXPECT_LE(r.removed_volume, 60 * deleted + 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TrimmingSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 3, 6)));

TEST(TrimmingEngineGoldenTest, PrunedAndEvictedSetsAcrossBatches) {
  // Exact outputs recorded from the level-by-level push-relabel scan that
  // preceded the occupied-level bitmask; height 72 spans two bitmask words.
  // Four batches each delete five edges at vertex 5b: the first prunes
  // vertex 0, the next two are routed, the last collapses the cluster.
  par::Rng rng(6501);
  const UndirectedGraph g = graph::random_regular_expander(40, 4, rng);  // 8-regular
  TrimmingEngine engine(g, {.phi = 0.3, .height = 72});
  struct Batch {
    std::vector<EdgeId> deleted;
    std::vector<Vertex> pruned;
    std::vector<EdgeId> evicted;
    std::uint64_t edge_scans;        // cumulative
    std::int64_t removed_volume;     // cumulative
    std::int64_t flow_checksum;      // Σ (e+1)·f_e of the certificate flow
    std::int64_t absorbed_checksum;  // Σ (v+1)·absorbed_v
  };
  // The collapse prunes vertices 1..39 in id order, except 15 comes last.
  std::vector<Vertex> last_pruned(39);
  std::iota(last_pruned.begin(), last_pruned.end(), 1);
  last_pruned.erase(last_pruned.begin() + 14);
  last_pruned.push_back(15);
  const std::vector<Batch> want = {
      {{9, 10, 40, 79, 105}, {0}, {156, 155, 106}, 77, 3, -115, 1231},
      {{15, 16, 61, 62, 99}, {}, {}, 201, 3, -292, 2747},
      {{7, 8, 45, 46, 80}, {}, {}, 396, 3, -241, 3986},
      {{20, 21, 72, 73, 91},
       last_pruned,
       {34,  35,  159, 74,  95,  96,  120, 33,  129, 63,  64,  130, 107, 37,  38,  42,
        43,  93,  94,  126, 127, 27,  28,  56,  57,  104, 158, 149, 148, 100, 151, 29,
        152, 75,  92,  12,  13,  71,  153, 102, 103, 19,  134, 48,  49,  86,  87,  133,
        24,  25,  65,  66,  81,  82,  135, 125, 124, 119, 0,   39,  47,  150, 111, 112,
        26,  85,  68,  69,  84,  3,   4,   77,  78,  118, 132, 154, 36,  67,  90,  18,
        131, 58,  59,  113, 114, 1,   2,   89,  147, 88,  98,  142, 143, 50,  97,  157,
        14,  30,  31,  60,  146, 110, 144, 55,  6,   138, 139, 101, 22,  23,  44,  141,
        115, 116, 140, 145, 52,  51,  121, 108, 109, 5,   11,  136, 70,  137, 53,  32,
        122, 41,  17,  83,  54,  128, 117, 76,  123},
       49180, 274, 0, 4914},
  };
  for (std::size_t b = 0; b < want.size(); ++b) {
    std::vector<EdgeId> del;
    for (std::size_t i = 0; i < 5; ++i)
      del.push_back(g.incident(static_cast<Vertex>(5 * b))[i].edge);
    ASSERT_EQ(del, want[b].deleted) << "batch " << b;
    std::vector<EdgeId> evicted;
    const auto pruned = engine.delete_batch(del, &evicted);
    EXPECT_EQ(pruned, want[b].pruned) << "batch " << b;
    EXPECT_EQ(evicted, want[b].evicted) << "batch " << b;
    EXPECT_EQ(engine.edge_scans(), want[b].edge_scans) << "batch " << b;
    EXPECT_EQ(engine.removed_volume(), want[b].removed_volume) << "batch " << b;
    EXPECT_EQ(engine.leftover_excess(), 0) << "batch " << b;
    std::int64_t flow_sum = 0;
    std::int64_t absorbed_sum = 0;
    const auto& f = engine.certificate_flow();
    for (std::size_t e = 0; e < f.size(); ++e) flow_sum += static_cast<std::int64_t>(e + 1) * f[e];
    const auto& a = engine.absorbed();
    for (std::size_t v = 0; v < a.size(); ++v)
      absorbed_sum += static_cast<std::int64_t>(v + 1) * a[v];
    EXPECT_EQ(flow_sum, want[b].flow_checksum) << "batch " << b;
    EXPECT_EQ(absorbed_sum, want[b].absorbed_checksum) << "batch " << b;
  }
}

}  // namespace
}  // namespace pmcf::expander
