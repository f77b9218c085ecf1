// Tests for the robust-IPM data structures: flat-norm maximizer (Lemma D.2 /
// Cor D.3), τ-sampler (Theorem A.3), HeavyHitter (Lemma B.1) and the
// HeavyHitter reuse of DualMaintenance (Theorem E.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "ds/flat_norm.hpp"
#include "core/solver_context.hpp"
#include "ds/dual_maintenance.hpp"
#include "ds/heavy_hitter.hpp"
#include "ds/tau_sampler.hpp"
#include "graph/generators.hpp"
#include "linalg/incidence.hpp"
#include "parallel/rng.hpp"
#include "parallel/work_depth.hpp"

namespace pmcf::ds {
namespace {

using graph::Digraph;
using graph::Vertex;
using linalg::Vec;

// ---------- flat norm ----------

double mixed_norm(const Vec& w, const Vec& tau, double c) {
  return linalg::norm_inf(w) + c * linalg::norm_tau(w, tau);
}

TEST(FlatNormTest, ResultIsFeasible) {
  par::Rng rng(91);
  const std::size_t m = 40;
  Vec v(m), tau(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = rng.next_double() * 2.0 - 1.0;
    tau[i] = 0.1 + rng.next_double();
  }
  const auto res = flat_norm_argmax(v, tau, 3.0);
  EXPECT_LE(mixed_norm(res.w, tau, 3.0), 1.0 + 1e-6);
  EXPECT_NEAR(res.value, linalg::dot(v, res.w), 1e-9);
}

TEST(FlatNormTest, BeatsRandomFeasiblePoints) {
  par::Rng rng(92);
  const std::size_t m = 12;
  Vec v(m), tau(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = rng.next_double() * 2.0 - 1.0;
    tau[i] = 0.2 + rng.next_double();
  }
  const double c = 2.0;
  const auto res = flat_norm_argmax(v, tau, c);
  for (int trial = 0; trial < 500; ++trial) {
    Vec w(m);
    for (auto& wi : w) wi = rng.next_double() * 2.0 - 1.0;
    const double nrm = mixed_norm(w, tau, c);
    for (auto& wi : w) wi /= nrm;  // scale onto the unit sphere
    EXPECT_LE(linalg::dot(v, w), res.value + 1e-6);
  }
}

TEST(FlatNormTest, LargeCApproachesWeightedL2Maximizer) {
  // c -> inf: optimum ~ argmax over the τ-ball alone: w ∝ v/τ scaled.
  Vec v{1.0, 2.0};
  Vec tau{1.0, 1.0};
  const double c = 1e5;
  const auto res = flat_norm_argmax(v, tau, c);
  // Optimal value ~ ||v||_2 / c.
  EXPECT_NEAR(res.value, std::sqrt(5.0) / c, 1e-3 / c + 1e-9);
}

TEST(FlatNormTest, TinyCApproachesSignVector) {
  Vec v{1.0, -2.0, 0.5};
  Vec tau{1.0, 1.0, 1.0};
  const auto res = flat_norm_argmax(v, tau, 1e-7);
  // w ~ sign(v): value ~ ||v||_1.
  EXPECT_NEAR(res.value, 3.5, 1e-3);
}

/// Reference maximizer: the same 32-step ternary search over β, but each
/// probe finds λ in Σ τ_i min(β, λ|v_i|/τ_i)² = r² by bisection run until the
/// bracket stops shrinking.
double reference_inner(const Vec& v, const Vec& tau, double beta, double r, Vec* w) {
  const std::size_t m = v.size();
  if (w != nullptr) w->assign(m, 0.0);
  if (beta <= 0.0 || r <= 0.0) return 0.0;
  auto tau_norm_sq = [&](double lambda) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double wi = std::min(beta, lambda * std::abs(v[i]) / tau[i]);
      acc += tau[i] * wi * wi;
    }
    return acc;
  };
  double clipped_sq = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    if (v[i] != 0.0) clipped_sq += tau[i] * beta * beta;
  double lambda = std::numeric_limits<double>::infinity();  // all clipped
  if (clipped_sq > r * r) {
    double hi = 1.0;
    while (tau_norm_sq(hi) < r * r) hi *= 2.0;
    double lo = hi;
    while (lo > 1e-300 && tau_norm_sq(lo) >= r * r) lo *= 0.5;
    for (int it = 0; it < 2000; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (tau_norm_sq(mid) < r * r ? lo : hi) = mid;
    }
    lambda = 0.5 * (lo + hi);
  }
  double val = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (v[i] == 0.0) continue;
    const double wi = std::min(beta, lambda * std::abs(v[i]) / tau[i]);
    val += std::abs(v[i]) * wi;
    if (w != nullptr) (*w)[i] = v[i] >= 0.0 ? wi : -wi;
  }
  return val;
}

FlatNormResult reference_flat_norm(const Vec& v, const Vec& tau, double c) {
  auto value_at = [&](double beta) {
    return reference_inner(v, tau, beta, (1.0 - beta) / c, nullptr);
  };
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
  res.value = reference_inner(v, tau, beta, (1.0 - beta) / c, &res.w);
  return res;
}

void expect_matches_reference(const Vec& v, const Vec& tau, double c, const std::string& what) {
  const auto got = flat_norm_argmax(v, tau, c);
  ASSERT_EQ(got.w.size(), v.size()) << what;
  // Same split β: the closed-form inner solve must reproduce the bisection.
  Vec w_ref;
  const double at_beta = reference_inner(v, tau, got.beta, (1.0 - got.beta) / c, &w_ref);
  EXPECT_LE(std::abs(got.value - at_beta), 1e-12 * std::abs(at_beta)) << what;
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(got.w[i], w_ref[i], 1e-9) << what << " i=" << i;
  // Whole search: the two ternary searches may part ways where two probe
  // values tie to rounding, so β agrees to the final bracket width
  // ((2/3)^32 ≈ 2.3e-6 each); the value is flat there and agrees tightly.
  const auto want = reference_flat_norm(v, tau, c);
  EXPECT_LE(std::abs(got.value - want.value), 1e-12 * std::abs(want.value)) << what;
  EXPECT_NEAR(got.beta, want.beta, 5e-6) << what;
  EXPECT_LE(mixed_norm(got.w, tau, c), 1.0 + 1e-12) << what;
  EXPECT_NEAR(got.value, linalg::dot(v, got.w), 1e-12 * (1.0 + std::abs(got.value))) << what;
}

TEST(FlatNormTest, ClosedFormMatchesBisectionReference) {
  par::Rng rng(94);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + rng.next_below(60);
    Vec v(m), tau(m);
    for (std::size_t i = 0; i < m; ++i) {
      // Mixed magnitudes, some exact zeros.
      v[i] = rng.next_below(8) == 0 ? 0.0
                                    : (rng.next_double() * 2.0 - 1.0) *
                                          std::pow(10.0, rng.uniform_int(-2, 2));
      tau[i] = 0.01 + rng.next_double() * std::pow(10.0, rng.uniform_int(-1, 1));
    }
    const double cs[] = {1e-3, 0.3, 1.0, 4.0, 1e5};
    const double c = cs[trial % 5];
    expect_matches_reference(v, tau, c, "trial " + std::to_string(trial));
  }
}

TEST(FlatNormTest, EdgeCases) {
  for (const double c : {1e-3, 1.0, 1e5}) {
    const std::string tag = " c=" + std::to_string(c);
    // Empty v.
    const auto empty = flat_norm_argmax(Vec{}, Vec{}, c);
    EXPECT_TRUE(empty.w.empty());
    EXPECT_EQ(empty.value, 0.0);
    // All-zero v.
    const auto zero = flat_norm_argmax(Vec(5, 0.0), Vec(5, 0.5), c);
    EXPECT_EQ(zero.value, 0.0);
    for (const double wi : zero.w) EXPECT_EQ(wi, 0.0);
    // k = 1.
    expect_matches_reference(Vec{-0.7}, Vec{2.0}, c, "k=1" + tag);
    expect_matches_reference(Vec{0.0, 3.0, 0.0}, Vec{1.0, 0.25, 4.0}, c, "one non-zero" + tag);
    // Ties in |v|/τ, with mixed signs.
    expect_matches_reference(Vec{1.0, -2.0, 3.0, -0.5, 0.25}, Vec{1.0, 2.0, 3.0, 0.5, 1.0}, c,
                             "ties" + tag);
  }
  // Everything clipped: with c = 1e-3 the τ budget (1-β)/c dwarfs β²Στ for
  // every β below ~0.998 (every early ternary probe), where the value is
  // β·||v||_1. It grows with β, so the optimum sits at the edge of that
  // regime: w ≈ β·sign(v).
  const Vec v{0.3, -1.0, 2.0, -0.01};
  const Vec tau{1.0, 0.5, 2.0, 1.0};
  expect_matches_reference(v, tau, 1e-3, "all clipped");
  const auto res = flat_norm_argmax(v, tau, 1e-3);
  const double beta = linalg::norm_inf(res.w);
  EXPECT_GT(beta, 0.99);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(res.w[i], v[i] > 0 ? beta : -beta, 1e-4) << i;
  EXPECT_NEAR(res.value, beta * 3.31, 1e-4);
}

// ---------- tau sampler ----------

TEST(TauSamplerTest, ProbabilityLowerBoundHolds) {
  par::Rng rng(93);
  const std::size_t m = 200, n = 40;
  std::vector<double> tau(m);
  for (auto& t : tau) t = 0.05 + rng.next_double();
  TauSampler sampler(tau, n, 5);
  double sum = 0.0;
  for (const double t : tau) sum += t;
  for (std::size_t i = 0; i < m; i += 17) {
    const double p = sampler.probability(i, 0.5);
    EXPECT_GE(p + 1e-12, std::min(1.0, 0.5 * static_cast<double>(n) * tau[i] / sum));
    EXPECT_LE(p, 1.0);
  }
}

TEST(TauSamplerTest, EmpiricalFrequencyMatchesProbability) {
  const std::size_t m = 50, n = 10;
  std::vector<double> tau(m, 1.0);
  tau[7] = 8.0;  // heavy index
  TauSampler sampler(tau, n, 6);
  const double k = 0.3;
  const double p7 = sampler.probability(7, k);
  int hits = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const auto s = sampler.sample(k);
    hits += std::count(s.begin(), s.end(), std::size_t{7});
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, p7, 0.05);
}

TEST(TauSamplerTest, ScaleMovesBuckets) {
  std::vector<double> tau{1.0, 1.0, 1.0, 1.0};
  TauSampler sampler(tau, 2, 7);
  EXPECT_DOUBLE_EQ(sampler.tau_sum(), 4.0);
  sampler.scale({1, 3}, {16.0, 0.25});
  EXPECT_DOUBLE_EQ(sampler.tau_sum(), 1.0 + 16.0 + 1.0 + 0.25);
  // Index 1 is now much likelier than index 0.
  EXPECT_GT(sampler.probability(1, 0.05), sampler.probability(0, 0.05));
}

TEST(TauSamplerTest, SampleSizeBounded) {
  par::Rng rng(94);
  const std::size_t m = 2000, n = 50;
  std::vector<double> tau(m);
  for (auto& t : tau) t = 0.01 + 0.02 * rng.next_double();
  TauSampler sampler(tau, n, 8);
  const auto s = sampler.sample(1.0);
  // E[|S|] <= 2 K n (Theorem A.3); allow slack.
  EXPECT_LE(s.size(), 8 * n);
}

// ---------- heavy hitter ----------

struct HhFixture {
  Digraph g;
  Vec weights;
  HhFixture(Vertex n, std::int64_t m, std::uint64_t seed) : g(0) {
    par::Rng rng(seed);
    g = graph::random_flow_network(n, m, 5, 5, rng);
    weights.resize(static_cast<std::size_t>(m));
    for (auto& w : weights) w = 0.25 + rng.next_double();
  }
};

/// Oracle: all arcs with |g_e (Ah)_e| >= eps by brute force.
std::vector<std::size_t> brute_heavy(const Digraph& g, const Vec& w, const Vec& h, double eps) {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < static_cast<std::size_t>(g.num_arcs()); ++e) {
    const auto& a = g.arc(static_cast<graph::EdgeId>(e));
    const double val =
        w[e] * std::abs(h[static_cast<std::size_t>(a.to)] - h[static_cast<std::size_t>(a.from)]);
    if (val >= eps) out.push_back(e);
  }
  return out;
}

TEST(HeavyHitterTest, FindsAllHeavyRows) {
  HhFixture f(30, 150, 95);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  par::Rng rng(96);
  for (int trial = 0; trial < 10; ++trial) {
    Vec h(30);
    for (auto& x : h) x = rng.next_double() * 2.0 - 1.0;
    const double eps = 0.4;
    const auto got = hh.heavy_query(h, eps);
    const auto expected = brute_heavy(f.g, f.weights, h, eps);
    // Everything truly heavy must be found (one-sided guarantee); false
    // positives are filtered by the final exact check, so sets match.
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(HeavyHitterTest, ScaleChangesAnswers) {
  HhFixture f(20, 80, 97);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(20);
  par::Rng rng(98);
  for (auto& x : h) x = rng.next_double();
  // Boost one row's weight so it becomes heavy.
  const std::size_t target = 5;
  hh.scale({target}, {50.0});
  Vec w2 = f.weights;
  w2[target] = 50.0;
  const auto got = hh.heavy_query(h, 1.0);
  const auto expected = brute_heavy(f.g, w2, h, 1.0);
  EXPECT_EQ(got, expected);
}

TEST(HeavyHitterTest, ZeroWeightRowsNeverReturned) {
  HhFixture f(15, 50, 99);
  f.weights[3] = 0.0;
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(15, 0.0);
  h[0] = 100.0;
  const auto got = hh.heavy_query(h, 1e-9);
  EXPECT_TRUE(std::find(got.begin(), got.end(), std::size_t{3}) == got.end());
}

TEST(HeavyHitterTest, SampleCoversLargeEntries) {
  // Rows carrying most of ||GAh||² must be sampled with high probability.
  HhFixture f(25, 100, 100);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(25, 0.0);
  par::Rng rng(101);
  for (auto& x : h) x = 0.05 * rng.next_double();
  h[3] = 5.0;  // make arcs at vertex 3 dominate
  const auto probs_all = hh.probability({0, 1, 2, 3, 4}, h, 100.0);
  for (const double p : probs_all) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // An arc adjacent to the dominating vertex should be near-certain.
  std::size_t dom = 0;
  double best = -1.0;
  for (std::size_t e = 0; e < 100; ++e) {
    const auto& a = f.g.arc(static_cast<graph::EdgeId>(e));
    const double val = f.weights[e] * std::abs(h[static_cast<std::size_t>(a.to)] -
                                               h[static_cast<std::size_t>(a.from)]);
    if (val > best) {
      best = val;
      dom = e;
    }
  }
  const auto p = hh.probability({dom}, h, 100.0);
  EXPECT_GT(p[0], 0.9);
  int hits = 0;
  for (int t = 0; t < 50; ++t) {
    const auto s = hh.sample(h, 100.0);
    hits += std::count(s.begin(), s.end(), dom);
  }
  EXPECT_GE(hits, 40);
}

TEST(HeavyHitterTest, LeverageSampleBoundsAndCoverage) {
  HhFixture f(20, 90, 102);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  const auto bound = hh.leverage_bound({0, 5, 10}, 0.2);
  for (const double p : bound) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  const auto s = hh.leverage_sample(0.2);
  for (const std::size_t e : s) EXPECT_LT(e, 90u);
}

TEST(HeavyHitterTest, QueryWorkIsOutputSensitive) {
  // With a localized h, the query must not scan all m arcs.
  HhFixture f(400, 2400, 103);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec h(400, 0.0);  // all-zero: nothing heavy, scans ~ cluster vertex sums
  const auto got = hh.heavy_query(h, 0.5);
  EXPECT_TRUE(got.empty());
  EXPECT_LT(hh.last_query_scans(), 6000u) << "scan count must be Õ(n), not O(m)";
}

TEST(HeavyHitterTest, RandomScaleSequencesStayExact) {
  // Weight drift by factors in [1/8, 8], moves to and from 0 included: the
  // heavy set must equal brute force after every call, stale buckets or not.
  HhFixture f(30, 150, 104);
  HeavyHitter hh(pmcf::core::default_context(), f.g, f.weights);
  Vec w = f.weights;
  par::Rng rng(105);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::size_t> idx;
    Vec vals;
    const auto count = 1 + rng.next_below(12);
    for (std::uint64_t k = 0; k < count; ++k) {
      const auto e = static_cast<std::size_t>(rng.next_below(150));
      if (std::find(idx.begin(), idx.end(), e) != idx.end()) continue;
      double v = 0.0;
      if (w[e] == 0.0)
        v = 0.25 + rng.next_double();
      else if (rng.next_double() >= 0.1)
        v = w[e] * std::exp2(6.0 * rng.next_double() - 3.0);
      idx.push_back(e);
      vals.push_back(v);
      w[e] = v;
    }
    hh.scale(idx, vals);
    for (int trial = 0; trial < 3; ++trial) {
      Vec h(30);
      for (auto& x : h) x = rng.next_double() * 2.0 - 1.0;
      if (trial == 2) {  // one steep vertex: a few heavy rows among light ones
        h.assign(30, 0.0);
        h[rng.next_below(30)] = 4.0;
      }
      for (const double eps : {0.05, 0.4, 2.0})
        ASSERT_EQ(hh.heavy_query(h, eps), brute_heavy(f.g, w, h, eps))
            << "round " << round << " trial " << trial << " eps " << eps;
    }
  }
  EXPECT_GT(hh.bucket_moves(), 0u);
}

TEST(HeavyHitterTest, OneExponentDriftLeavesTheDecompositionAlone) {
  HhFixture f(20, 80, 106);
  HeavyHitter hh(pmcf::core::default_context(), f.g, Vec(80, 1.0));
  // scale() charges 2 for a one-row call; anything above that is expander
  // work (an erase or an insert).
  auto scale_work = [&](double v) {
    const par::CostScope scope;
    hh.scale({5}, {v});
    return scope.elapsed().work;
  };
  for (const double v : {1.9, 3.5, 0.6, 1.2}) {
    EXPECT_EQ(scale_work(v), 2u) << v;
    EXPECT_EQ(hh.bucket_moves(), 0u) << v;
  }
  EXPECT_GT(scale_work(4.5), 2u);  // exponent 2: leaves bucket 0
  EXPECT_EQ(hh.bucket_moves(), 1u);
  EXPECT_EQ(scale_work(2.5), 2u);  // exponent 1, within bucket 2's band
  EXPECT_GT(scale_work(0.0), 2u);  // to zero always moves
  EXPECT_GT(scale_work(1.0), 2u);  // and so does from zero
  EXPECT_EQ(hh.bucket_moves(), 3u);
}

TEST(HeavyHitterTest, StaleBucketSamplingMatchesProbability) {
  // Drift every row within its band, so g_e²/4^i spans [1/4, 16): sample()'s
  // inclusion frequencies must still match probability().
  HhFixture f(20, 80, 107);
  HeavyHitter hh(pmcf::core::default_context(), f.g, Vec(80, 1.0));
  std::vector<std::size_t> all(80);
  Vec vals(80);
  for (std::size_t e = 0; e < 80; ++e) {
    all[e] = e;
    vals[e] = e % 2 == 0 ? 3.7 : 0.55;
  }
  hh.scale(all, vals);
  ASSERT_EQ(hh.bucket_moves(), 0u);
  Vec h(20);
  par::Rng rng(108);
  for (auto& x : h) x = rng.next_double() - 0.5;
  const double big_k = 12.0;
  const Vec p = hh.probability(all, h, big_k);
  const int draws = 4000;
  std::vector<int> hits(80, 0);
  for (int t = 0; t < draws; ++t)
    for (const std::size_t e : hh.sample(h, big_k)) ++hits[e];
  int interior = 0;
  for (std::size_t e = 0; e < 80; ++e) {
    const double sd = std::sqrt(p[e] * (1.0 - p[e]) / draws);
    EXPECT_NEAR(static_cast<double>(hits[e]) / draws, p[e], 5.0 * sd + 1.0 / draws)
        << "arc " << e;
    if (p[e] > 0.05 && p[e] < 0.95) ++interior;
  }
  EXPECT_GE(interior, 10) << "the check needs probabilities away from 0 and 1";
}

TEST(DualMaintenanceTest, ReinitializeMatchesAFreshStructure) {
  // The HeavyHitter outlives a reinitialize; after the boundary the changed
  // sets must equal those of a structure built fresh from the same state.
  par::Rng rng(109);
  const Vertex n = 20;
  const Digraph g = graph::random_flow_network(n, 90, 4, 4, rng);
  const std::size_t m = 90;
  Vec w(m);
  for (auto& x : w) x = 0.5 + rng.next_double();
  DualMaintenanceOptions opts;
  opts.eps = 0.1;
  opts.period = 4;
  DualMaintenance dm(pmcf::core::default_context(), g, Vec(m, 0.0), w, opts);
  auto step = [&] {
    Vec h(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < 4; ++k)
      h[rng.next_below(static_cast<std::uint64_t>(n - 1))] += 0.08 * (rng.next_double() - 0.5);
    return h;
  };
  auto drift = [&](std::vector<std::size_t>& idx, Vec& delta) {
    idx.clear();
    delta.clear();
    for (int k = 0; k < 6; ++k) {
      const auto e = static_cast<std::size_t>(rng.next_below(m));
      if (std::find(idx.begin(), idx.end(), e) != idx.end()) continue;
      idx.push_back(e);
      delta.push_back(w[e] * std::exp2(4.0 * rng.next_double() - 2.0));
      w[e] = delta.back();
    }
  };
  std::vector<std::size_t> idx;
  Vec delta;
  for (int period = 0; period < 3; ++period) {
    // One period of adds with accuracy changes in between, so the kept
    // HeavyHitter carries rows in stale buckets across the boundary.
    for (int t = 0; t < opts.period; ++t) {
      (void)dm.add(step());
      drift(idx, delta);
      dm.set_accuracy(idx, delta);
    }
    DualMaintenance fresh(pmcf::core::default_context(), g, dm.compute_exact(), w, opts);
    for (int t = 0; t < opts.period; ++t) {
      const Vec h = step();
      const auto kept = dm.add(h);
      const auto rebuilt = fresh.add(h);
      ASSERT_EQ(kept.changed, rebuilt.changed) << "period " << period << " step " << t;
      ASSERT_EQ(*kept.approx, *rebuilt.approx);
      if (t + 1 < opts.period) {
        drift(idx, delta);
        dm.set_accuracy(idx, delta);
        fresh.set_accuracy(idx, delta);
      }
    }
  }
}

}  // namespace
}  // namespace pmcf::ds
