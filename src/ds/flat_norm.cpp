#include "ds/flat_norm.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/scheduler.hpp"

namespace pmcf::ds {

namespace {

using linalg::Vec;

/// The non-zero entries of v sorted by a_i = |v_i|/τ_i (largest first), with
/// prefix sums of τ and |v| and suffix sums of τa² (= |v|·a). With the top t
/// entries clipped at β and the rest at λa_i,
///   ||w||_τ² = β²·tau_pre[t] + λ²·tau_a2_suf[t],
///   <v, w>  = β·abs_pre[t]  + λ·tau_a2_suf[t].
struct WaterFill {
  std::vector<std::size_t> order;
  std::vector<double> a;           // a of order[s]
  std::vector<double> tau_pre;     // Σ_{s<t} τ
  std::vector<double> abs_pre;     // Σ_{s<t} |v|
  std::vector<double> tau_a2_suf;  // Σ_{s>=t} τa²

  WaterFill(const Vec& v, const Vec& tau) {
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v[i] != 0.0) order.push_back(i);
    auto ratio = [&](std::size_t i) { return std::abs(v[i]) / tau[i]; };
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      const double ax = ratio(x), ay = ratio(y);
      return ax > ay || (ax == ay && x < y);
    });
    const std::size_t k = order.size();
    a.resize(k);
    tau_pre.assign(k + 1, 0.0);
    abs_pre.assign(k + 1, 0.0);
    tau_a2_suf.assign(k + 1, 0.0);
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t i = order[s];
      a[s] = ratio(i);
      tau_pre[s + 1] = tau_pre[s] + tau[i];
      abs_pre[s + 1] = abs_pre[s] + std::abs(v[i]);
    }
    for (std::size_t s = k; s-- > 0;)
      tau_a2_suf[s] = tau_a2_suf[s + 1] + std::abs(v[order[s]]) * a[s];
    const std::uint64_t lg = par::ceil_log2(std::max<std::size_t>(k, 2));
    par::charge(v.size() + k * lg + 2 * k, 2 * lg + 1);  // filter, sort, scans
  }

  /// Largest t whose breakpoint λ_t = β/a_t still has ||w||_τ² <= r²,
  /// and the λ solving β²·tau_pre[t] + λ²·tau_a2_suf[t] = r² exactly.
  /// ||w||_τ² at λ_t is β²·(tau_pre[t] + tau_a2_suf[t]/a_{t-1}²), monotone in t.
  struct Split {
    std::size_t t;
    double lambda;
  };
  [[nodiscard]] Split split(double beta, double r) const {
    const double rho = (r / beta) * (r / beta);
    std::size_t lo = 0, hi = a.size();  // t = 0 always fits
    while (lo < hi) {
      const std::size_t mid = (lo + hi + 1) / 2;
      const double at = a[mid - 1];
      if (tau_pre[mid] + tau_a2_suf[mid] / (at * at) <= rho) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    const std::uint64_t probes = par::ceil_log2(std::max<std::size_t>(a.size(), 2)) + 1;
    par::charge(probes, probes);
    if (lo == a.size()) return {lo, 0.0};  // everything clipped at β
    const double slack = std::max(r * r - beta * beta * tau_pre[lo], 0.0);
    return {lo, std::sqrt(slack / tau_a2_suf[lo])};
  }

  /// Best objective for a fixed ||w||_∞ budget beta and ||w||_τ budget r.
  [[nodiscard]] double value(double beta, double r) const {
    if (beta <= 0.0 || r <= 0.0) return 0.0;
    const auto [t, lambda] = split(beta, r);
    return beta * abs_pre[t] + lambda * tau_a2_suf[t];
  }

  /// The maximizer for the budgets; returns <v, w>.
  double fill(const Vec& v, double beta, double r, Vec& w) const {
    w.assign(v.size(), 0.0);
    if (beta <= 0.0 || r <= 0.0) return 0.0;
    const auto [t, lambda] = split(beta, r);
    double val = 0.0;
    for (std::size_t s = 0; s < order.size(); ++s) {
      const std::size_t i = order[s];
      const double wi = s < t ? beta : std::min(beta, lambda * a[s]);
      w[i] = v[i] >= 0.0 ? wi : -wi;
      val += std::abs(v[i]) * wi;
    }
    par::charge(v.size() + order.size(),
                par::ceil_log2(std::max<std::size_t>(order.size(), 2)) + 1);
    return val;
  }
};

}  // namespace

FlatNormResult flat_norm_argmax(const Vec& v, const Vec& tau, double c_norm) {
  const WaterFill wf(v, tau);
  // Outer ternary search over beta in [0, 1]; objective is unimodal in the
  // budget split (it is the support function of a convex body sliced along
  // a line of feasible splits).
  auto value_at = [&](double beta) { return wf.value(beta, (1.0 - beta) / c_norm); };
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 32; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (value_at(m1) < value_at(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  const double beta = 0.5 * (lo + hi);
  FlatNormResult res;
  res.beta = beta;
  res.value = wf.fill(v, beta, (1.0 - beta) / c_norm, res.w);
  return res;
}

}  // namespace pmcf::ds
