#include "ml/linear_model.hpp"

#include <algorithm>

#include "ml/row_score_detail.hpp"
#include "support/require.hpp"

namespace pitfalls::ml {

LinearModel::LinearModel(std::size_t num_vars, std::vector<double> weights,
                         FeatureMap features, std::string name)
    : num_vars_(num_vars),
      weights_(std::move(weights)),
      features_(std::move(features)),
      name_(std::move(name)) {
  PITFALLS_REQUIRE(!weights_.empty(), "a linear model needs weights");
  PITFALLS_REQUIRE(static_cast<bool>(features_), "a feature map is required");
}

std::vector<double> LinearModel::features_of(const BitVec& x) const {
  PITFALLS_REQUIRE(x.size() == num_vars_, "input arity mismatch");
  auto phi = features_(x);
  PITFALLS_REQUIRE(phi.size() == weights_.size(),
                   "feature dimension mismatch");
  return phi;
}

double LinearModel::score(const BitVec& x) const {
  const auto phi = features_of(x);
  double sum = 0.0;
  for (std::size_t i = 0; i < phi.size(); ++i) sum += weights_[i] * phi[i];
  return sum;
}

int LinearModel::eval_pm(const BitVec& x) const {
  return score(x) < 0.0 ? -1 : +1;
}

void LinearModel::eval_pm_batch(std::span<const BitVec> xs,
                                std::span<int> out) const {
  PITFALLS_REQUIRE(xs.size() == out.size(),
                   "batch spans must have equal length");
  std::vector<double> phi[detail::kRowBlock];
  for (std::size_t i = 0; i < xs.size(); i += detail::kRowBlock) {
    const std::size_t count = std::min(detail::kRowBlock, xs.size() - i);
    const double* rows[detail::kRowBlock];
    for (std::size_t k = 0; k < detail::kRowBlock; ++k) {
      if (k < count) phi[k] = features_of(xs[i + k]);
      rows[k] = phi[std::min(k, count - 1)].data();
    }
    double scores[detail::kRowBlock];
    detail::score_block(rows, weights_.data(), weights_.size(), scores);
    for (std::size_t k = 0; k < count; ++k)
      out[i + k] = scores[k] < 0.0 ? -1 : +1;
  }
}

}  // namespace pitfalls::ml
