#pragma once
// Oracle check of one answered request, run outside the timed interval:
// the answer must be kOk and certified by the Engine, its cost and flow
// value must equal baselines::ssp_min_cost_max_flow on the same (post-delta)
// instance, and its arc flow must pass mcf::certify_max_flow against the
// benchmark's own copy of that instance.

#include <string>

#include "graph/digraph.hpp"
#include "mcf/min_cost_flow.hpp"

namespace perfbench {

/// Empty when the answer is right; otherwise why it is not.
std::string oracle_check(const pmcf::graph::Digraph& g, pmcf::graph::Vertex s,
                         pmcf::graph::Vertex t, const pmcf::mcf::MinCostFlowResult& answer);

}  // namespace perfbench
