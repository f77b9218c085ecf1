#pragma once
// HeavyHitter data structure (Lemma B.1 / Corollary B.2).
//
// Rows of Diag(g)·A (A the incidence matrix of a digraph) are grouped into
// power-of-two weight buckets; each bucket maintains a dynamic expander
// decomposition of its (undirected view) edge set (Lemma 3.1). A row enters
// bucket i = floor(log2 g_e) and stays there while its exact exponent e
// satisfies |e - i| <= kBucketBand, so bucket i holds g_e ∈ [2^{i-1}, 2^{i+2})
// and a weight drifting by less than one exponent never touches the
// decompositions. It moves (to its exact exponent) only when it leaves that
// band, or when its weight becomes or stops being zero.
//
// Let t = i + 1 while some member of bucket i has exponent i + 1, else t = i;
// members have g_e < 2^{t+1}. An edge with |g_e (Ah)_e| >= ε then has
// |h_u - h_v| >= ε/2^{t+1}, so an endpoint's degree-shifted potential has
// |h'_v| >= ε/2^{t+2}. HEAVYQUERY scans the incident edges of those vertices
// only and filters them exactly, so the reported set is exact for any
// decomposition; because each cluster is an expander, few vertices pass —
// work Õ(||Diag(g)Ah||² ε^{-2} + n log W) instead of O(m).
//
// SAMPLE / PROBABILITY / LEVERAGESCORESAMPLE implement the ℓ2-proportional
// and leverage-score-overestimate sampling of Lemma B.1 with work
// proportional to the expected output size. SAMPLE uses the bucket proxy
// 2^{2i} for g_e², so g_e²/4^i ∈ [1/4, 16) under the band; SAMPLE and
// PROBABILITY share it, keeping inverse-probability weights exact. The band
// widens the worst-case ratio between a row's ℓ2 share and its inclusion
// probability by 16× against the paper's [1, 4) (DESIGN.md §6.7);
// LEVERAGESCORESAMPLE's oversampling constant carries that factor.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "expander/dynamic_decomp.hpp"
#include "graph/digraph.hpp"
#include "linalg/kernels.hpp"
#include "parallel/rng.hpp"

namespace pmcf::core {
class SolverContext;
}

namespace pmcf::ds {

/// Options for HeavyHitter.
struct HeavyHitterOptions {
  double phi = 0.125;
  std::uint64_t seed = 17;
  expander::DynamicDecompOptions decomp;  ///< phi overwritten with `phi`
};

class HeavyHitter {
 public:
  using Options = HeavyHitterOptions;

  /// A row stays in its bucket while its weight exponent is within this many
  /// exponents of the bucket's (see the file comment).
  static constexpr std::int32_t kBucketBand = 1;

  /// Rows indexed by arc id of `g` (held by reference; topology must outlive
  /// this object). `weights` = the diagonal g (non-negative). `ctx` scopes
  /// fault injection (kHeavyHitterMiss) to the owning solve.
  HeavyHitter(core::SolverContext& ctx, const graph::Digraph& g, linalg::Vec weights,
              Options opts = {});

  /// weights[idx[k]] <- vals[k]; moves a row to another weight bucket only
  /// when its exponent leaves the band (or its weight becomes or stops being
  /// zero).
  void scale(const std::vector<std::size_t>& idx, const linalg::Vec& vals);

  /// All arcs e with |g_e (Ah)_e| >= eps. `h` has one entry per vertex (set
  /// the dropped coordinate to 0 to model the reduced incidence matrix).
  [[nodiscard]] std::vector<std::size_t> heavy_query(const linalg::Vec& h, double eps);

  /// ℓ2-proportional sampling of Diag(g)Ah (Lemma B.1 SAMPLE).
  [[nodiscard]] std::vector<std::size_t> sample(const linalg::Vec& h, double big_k);

  /// Per-arc inclusion probabilities matching sample().
  [[nodiscard]] linalg::Vec probability(const std::vector<std::size_t>& idx, const linalg::Vec& h,
                                        double big_k) const;

  /// Leverage-score-overestimate sampling (Lemma B.1 LEVERAGESCORESAMPLE).
  [[nodiscard]] std::vector<std::size_t> leverage_sample(double k_prime);

  /// Per-arc inclusion probabilities matching leverage_sample().
  [[nodiscard]] linalg::Vec leverage_bound(const std::vector<std::size_t>& idx,
                                           double k_prime) const;

  [[nodiscard]] double weight(std::size_t e) const { return weights_[e]; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t last_query_scans() const { return last_query_scans_; }
  /// Rows moved between buckets by scale() so far (each move is one erase
  /// and/or one insert in the decompositions).
  [[nodiscard]] std::uint64_t bucket_moves() const { return bucket_moves_; }

 private:
  using Cluster = expander::DynamicExpanderDecomposition::Cluster;
  struct Bucket {
    std::int32_t exponent = 0;
    std::unique_ptr<expander::DynamicExpanderDecomposition> decomp;
    std::size_t count = 0;
    std::size_t above = 0;  ///< members whose exact exponent is exponent + 1
  };
  static std::int32_t exponent_of(double w);
  Bucket& bucket_for(std::int32_t exp);
  using ShiftMap = std::unordered_map<const Cluster*, double>;
  /// Normalization Σ_{clusters} 2^{2i} Σ_v h'_v² deg(v) used by sample();
  /// `shifts` receives each cluster's shift of h, so callers compute it once.
  [[nodiscard]] double sample_mass(const linalg::Vec& h, ShiftMap& shifts) const;

  core::SolverContext* ctx_;
  const graph::Digraph* g_;
  linalg::Vec weights_;
  Options opts_;
  std::unordered_map<std::int32_t, std::size_t> bucket_index_;
  std::vector<Bucket> buckets_;
  std::vector<std::int32_t> row_bucket_;  ///< exponent per arc; INT32_MIN = zero weight
  par::Rng rng_;
  std::uint64_t last_query_scans_ = 0;
  std::uint64_t bucket_moves_ = 0;
};

}  // namespace pmcf::ds
