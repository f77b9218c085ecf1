#pragma once
// The mixed-norm maximizer v^♭(τ) = argmax_{||w||_{τ+∞} <= 1} <v, w>
// (Section 2.1, Lemma D.2 / Corollary D.3), where
//   ||w||_{τ+∞} = ||w||_∞ + c_norm * ||w||_τ ,  ||w||_τ = sqrt(Σ τ_i w_i²).
//
// Structure of the optimum: for a split β = ||w||_∞ the optimal w is the
// water-filling w_i = sign(v_i) * min(β, λ |v_i|/τ_i) with λ matched to the
// residual budget r = (1-β)/c_norm; the outer 1-D problem over β is unimodal.
// Sorting a_i = |v_i|/τ_i once makes the inner problem closed-form: the
// clipped entries are a prefix of that order, found by binary search, and
// λ solves β²·Σ_clipped τ + λ²·Σ_rest τa² = r² exactly. The outer problem is
// a 32-step ternary search over β — O(m log m) work and O(log m + log(1/ε)
// log m) depth in total.

#include <cstdint>

#include "linalg/kernels.hpp"

namespace pmcf::ds {

struct FlatNormResult {
  linalg::Vec w;        ///< the maximizer, ||w||_{τ+∞} <= 1
  double value = 0.0;   ///< <v, w>
  double beta = 0.0;    ///< the ||w||_∞ budget of the chosen split
};

/// c_norm is the C log(4m/n) constant of the mixed norm.
FlatNormResult flat_norm_argmax(const linalg::Vec& v, const linalg::Vec& tau, double c_norm);

}  // namespace pmcf::ds
