// Logistic regression — the workhorse of the *empirical* modeling attacks
// on arbiter-PUF variants (Ruehrmair et al. [8]). Included both as a
// baseline against the provable learners and to demonstrate the paper's
// point that empirical success under one sampling regime says nothing about
// PAC guarantees under another.
//
// Plain batch gradient descent with an adaptive per-dimension step (RProp),
// which is what the original PUF modeling-attack papers used. The training
// loop runs over one flat row-major feature buffer, four rows at a time;
// its summation order is part of the determinism contract (DESIGN.md §11,
// "Logistic fit kernel").
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "ml/linear_model.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

struct LogisticConfig {
  std::size_t max_iters = 300;
  double init_step = 0.05;
  double step_up = 1.2;      // RProp step growth on sign agreement
  double step_down = 0.5;    // RProp step shrink on sign flip
  double min_step = 1e-8;
  double max_step = 10.0;
  double tolerance = 1e-6;   // stop when the gradient norm falls below this
  /// Wall-clock deadline checked at every iteration boundary; when it
  /// expires fit() stops and returns the weights so far with deadline_hit.
  double max_seconds = std::numeric_limits<double>::infinity();
};

struct LogisticResult {
  std::vector<double> weights;
  std::size_t iterations = 0;
  double final_loss = 0.0;
  bool deadline_hit = false;  // max_seconds expired before convergence
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticConfig config = {}) : config_(config) {}

  LogisticResult fit(const std::vector<std::vector<double>>& X,
                     const std::vector<int>& y, support::Rng& rng) const;

  LinearModel fit_model(const std::vector<BitVec>& challenges,
                        const std::vector<int>& responses,
                        const FeatureMap& features, support::Rng& rng,
                        LogisticResult* stats = nullptr) const;

 private:
  /// The training loop over `y.size()` rows of `dim` features each, stored
  /// row-major in X. fit() and fit_model() both validate, flatten and call it.
  LogisticResult fit_rows(std::span<const double> X, std::size_t dim,
                          const std::vector<int>& y, support::Rng& rng) const;

  LogisticConfig config_;
};

}  // namespace pitfalls::ml
