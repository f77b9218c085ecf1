#pragma once
// Exact rounding of the IPM's near-optimal fractional flow (Section 2.2:
// "the optimal solution is guaranteed to be integral, so we can round").
//
// Pipeline: round x entrywise to integers, restore A^T x = b by routing the
// (small) imbalance through the residual graph with successive shortest
// paths, then cancel any remaining negative residual cycles. The result is
// an exactly optimal integral b-flow regardless of how crude the fractional
// input was — the input quality only controls how much repair work is done
// (reported, and measured by the perf_trajectory row paper_table1_mincostflow).

#include <cstdint>
#include <limits>
#include <vector>

#include "core/solve_status.hpp"
#include "core/solver_context.hpp"
#include "graph/digraph.hpp"
#include "linalg/kernels.hpp"

namespace pmcf::ipm {

struct RoundRepairResult {
  std::vector<std::int64_t> flow;  ///< per arc, integral, 0 <= f <= u
  std::int64_t cost = 0;
  std::int64_t imbalance_routed = 0;   ///< L1 imbalance after entry rounding
  std::int64_t cycles_canceled = 0;    ///< negative-cycle repairs
  bool feasible = false;
  /// kOk when the repaired flow satisfies A^T x = b; kInfeasible when the
  /// imbalance could not be routed (no feasible b-flow exists);
  /// kIterationLimit when a further negative cycle remained after
  /// `max_cycle_cancels` cancellations (the flow is then not optimal). Non-
  /// finite fractional entries are sanitized to 0 before rounding, so a
  /// NaN-ridden IPM iterate still yields a correct (if slow) repair, never UB.
  SolveStatus status = SolveStatus::kOk;
};

/// No cap on negative-cycle cancellations (every IPM-output repair).
inline constexpr std::int64_t kUnboundedCycleCancels = std::numeric_limits<std::int64_t>::max();

/// Round `x_frac` to the exact optimal integral solution of
/// min c^T x, A^T x = b, 0 <= x <= u (data taken from g; b over all rows).
/// At most `max_cycle_cancels` negative cycles are canceled; each one is an
/// O(nm) Bellman-Ford and cycle canceling is only pseudo-polynomial, so a
/// caller that has a cheaper alternative caps it (kIterationLimit past the
/// cap). PRAM work/depth for the repair is charged against `ctx`'s tracker.
RoundRepairResult round_and_repair(core::SolverContext& ctx, const graph::Digraph& g,
                                   const std::vector<std::int64_t>& b,
                                   const linalg::Vec& x_frac,
                                   std::int64_t max_cycle_cancels = kUnboundedCycleCancels);

}  // namespace pmcf::ipm
