#include "oracle.hpp"

#include "baselines/ssp.hpp"
#include "mcf/certify.hpp"

namespace perfbench {

std::string oracle_check(const pmcf::graph::Digraph& g, pmcf::graph::Vertex s,
                         pmcf::graph::Vertex t, const pmcf::mcf::MinCostFlowResult& answer) {
  if (answer.status != pmcf::SolveStatus::kOk)
    return std::string("status ") + pmcf::to_string(answer.status) + ": " +
           answer.failure_detail;
  if (!answer.stats.certified) return "answer not certified by the engine";
  const pmcf::baselines::McmfResult ref = pmcf::baselines::ssp_min_cost_max_flow(g, s, t);
  if (answer.flow_value != ref.flow)
    return "flow value " + std::to_string(answer.flow_value) + " != oracle " +
           std::to_string(ref.flow);
  if (answer.cost != ref.cost)
    return "cost " + std::to_string(answer.cost) + " != oracle " + std::to_string(ref.cost);
  const pmcf::mcf::CertifyReport rep =
      pmcf::mcf::certify_max_flow(g, s, t, answer.arc_flow, answer.flow_value, answer.cost);
  if (!rep.certified) return "arc flow rejected: " + rep.detail;
  return "";
}

}  // namespace perfbench
