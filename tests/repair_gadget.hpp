#pragma once
// A circulation on which negative-cycle canceling from the zero flow needs
// far more cancellations than the graph has arcs: 44 Bellman-Ford cycles
// for 11 arcs, because the cycles it finds first are partly undone by later
// ones. Found by a seeded search over small random multigraphs. Tests use it
// to push ipm::round_and_repair past a cancellation budget of one per arc.

#include <cstdint>
#include <cstdlib>

#include "graph/digraph.hpp"

namespace pmcf::testing_gadget {

inline constexpr std::int64_t kRepairGadgetCancels = 44;

/// The gadget's arcs with their signed costs (`abs_costs` = false) or with
/// every cost replaced by its absolute value, under which the zero flow is
/// the unique optimum (no arc is free).
inline graph::Digraph repair_gadget(bool abs_costs) {
  struct Arc {
    graph::Vertex from, to;
    std::int64_t cap, cost;
  };
  static constexpr Arc kArcs[] = {
      {0, 3, 1, -18}, {0, 1, 45, -10}, {0, 1, 4, 5},  {1, 0, 7, 4},
      {2, 0, 23, 8},  {1, 3, 42, -9},  {0, 1, 1, 13}, {1, 3, 25, 3},
      {2, 0, 39, 2},  {3, 2, 33, -19}, {3, 1, 22, 5},
  };
  graph::Digraph g(4);
  for (const Arc& a : kArcs) g.add_arc(a.from, a.to, a.cap, abs_costs ? std::llabs(a.cost) : a.cost);
  return g;
}

}  // namespace pmcf::testing_gadget
