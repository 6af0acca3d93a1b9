// A trained linear classifier over an explicit feature map: the hypothesis
// representation shared by the Perceptron and logistic-regression learners.
// Wrapping it as a BooleanFunction lets every downstream tool (accuracy
// evaluation, Fourier estimation, property testing) treat hypotheses and
// targets uniformly.
#pragma once

#include <span>
#include <vector>

#include "boolfn/boolean_function.hpp"
#include "ml/features.hpp"

namespace pitfalls::ml {

class LinearModel final : public boolfn::BooleanFunction {
 public:
  LinearModel(std::size_t num_vars, std::vector<double> weights,
              FeatureMap features, std::string name = "linear model");

  std::size_t num_vars() const override { return num_vars_; }
  int eval_pm(const BitVec& x) const override;  // sgn(0) := +1
  /// Scores the batch with the logistic fit's row kernel
  /// (ml/row_score_detail.hpp); bit-equal to eval_pm element-wise.
  void eval_pm_batch(std::span<const BitVec> xs,
                     std::span<int> out) const override;
  std::string describe() const override { return name_; }

  /// Real-valued score w . phi(x).
  double score(const BitVec& x) const;

  const std::vector<double>& weights() const { return weights_; }

 private:
  /// phi(x), checked against the model's arity and weight count.
  std::vector<double> features_of(const BitVec& x) const;

  std::size_t num_vars_;
  std::vector<double> weights_;
  FeatureMap features_;
  std::string name_;
};

}  // namespace pitfalls::ml
