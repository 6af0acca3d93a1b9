// Tests for the linear learners: feature maps, Perceptron, logistic
// regression — including the representation pitfall (Section V-A): the same
// Perceptron that masters an arbiter PUF in parity-feature space fails in
// raw challenge space.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "ml/features.hpp"
#include "ml/linear_model.hpp"
#include "ml/logistic.hpp"
#include "ml/perceptron.hpp"
#include "puf/arbiter.hpp"
#include "puf/crp.hpp"
#include "support/combinatorics.hpp"
#include "support/rng.hpp"

namespace {

using namespace pitfalls::ml;
using pitfalls::puf::ArbiterPuf;
using pitfalls::puf::CrpSet;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// ------------------------------------------------------------- features

TEST(Features, PmWithBias) {
  const auto phi = pm_with_bias(BitVec::from_string("011"));
  EXPECT_EQ(phi, (std::vector<double>{1.0, -1.0, -1.0, 1.0}));
}

TEST(Features, ParityWithBiasMatchesArbiterMap) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec c(9);
    for (std::size_t i = 0; i < 9; ++i) c.set(i, rng.coin());
    const auto phi = parity_with_bias(c);
    const auto reference = ArbiterPuf::feature_map(c);
    ASSERT_EQ(phi.size(), reference.size());
    for (std::size_t i = 0; i < phi.size(); ++i)
      EXPECT_DOUBLE_EQ(phi[i], static_cast<double>(reference[i]));
  }
}

TEST(Features, MonomialFeaturesMatchCharacters) {
  const BitVec x = BitVec::from_string("01");
  const auto phi = monomial_features(x, 2);
  // Subsets in order: {}, {0}, {1}, {0,1}.
  EXPECT_EQ(phi, (std::vector<double>{1.0, 1.0, -1.0, -1.0}));
  EXPECT_EQ(monomial_features(x, 1).size(),
            pitfalls::support::binomial_sum(2, 1));
}

TEST(LinearModel, ScoreAndSign) {
  LinearModel model(2, {1.0, -2.0, 0.5}, pm_with_bias, "test");
  const BitVec x = BitVec::from_string("01");  // phi = (1, -1, 1)
  EXPECT_DOUBLE_EQ(model.score(x), 1.0 + 2.0 + 0.5);
  EXPECT_EQ(model.eval_pm(x), +1);
}

TEST(LinearModel, ValidatesDimensions) {
  EXPECT_THROW(LinearModel(2, {}, pm_with_bias), std::invalid_argument);
  LinearModel model(2, {1.0, 1.0}, pm_with_bias);  // wrong dim discovered on use
  EXPECT_THROW(model.score(BitVec(2)), std::invalid_argument);
}

// ----------------------------------------------------------- perceptron

TEST(Perceptron, ConvergesOnSeparableData) {
  Rng rng(11);
  // Labels from a planted LTF in pm-feature space.
  std::vector<std::vector<double>> X;
  std::vector<int> y;
  const std::vector<double> w{1.5, -2.0, 0.7, 0.1, 0.5};
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.gaussian();
    double score = 0.0;
    for (std::size_t j = 0; j < 5; ++j) score += w[j] * row[j];
    if (std::abs(score) < 0.1) continue;  // keep a margin
    X.push_back(row);
    y.push_back(score < 0 ? -1 : +1);
  }
  const Perceptron learner;
  const auto result = learner.fit(X, y, rng);
  EXPECT_TRUE(result.converged);
  // Zero training error after convergence.
  for (std::size_t i = 0; i < X.size(); ++i) {
    double score = 0.0;
    for (std::size_t j = 0; j < 5; ++j) score += result.weights[j] * X[i][j];
    EXPECT_EQ(score < 0 ? -1 : +1, y[i]);
  }
}

TEST(Perceptron, LearnsArbiterPufInParityFeatures) {
  Rng rng(13);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(14);
  const CrpSet all = CrpSet::collect_uniform(puf, 3000, collect);
  const auto [train, test] = all.split_at(2000);

  Rng train_rng(15);
  const Perceptron learner;
  const LinearModel model = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
}

TEST(Perceptron, RawFeaturesFailOnArbiterPuf) {
  // Representation pitfall: in raw +/-1 challenge space the arbiter PUF is
  // not linearly separable and accuracy stalls far below the parity-feature
  // result.
  Rng rng(17);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(18);
  const CrpSet all = CrpSet::collect_uniform(puf, 3000, collect);
  const auto [train, test] = all.split_at(2000);

  Rng train_rng(19);
  const Perceptron learner;
  const LinearModel raw = learner.fit_model(
      train.challenges(), train.responses(), pm_with_bias, train_rng);
  const LinearModel parity = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_LT(test.accuracy_of(raw), test.accuracy_of(parity) - 0.15);
}

TEST(Perceptron, AveragedVariantAlsoLearns) {
  Rng rng(21);
  const ArbiterPuf puf(16, 0.0, rng);
  Rng collect(22);
  const CrpSet all = CrpSet::collect_uniform(puf, 2000, collect);
  const auto [train, test] = all.split_at(1500);

  PerceptronConfig config;
  config.averaged = true;
  Rng train_rng(23);
  const LinearModel model =
      Perceptron(config).fit_model(train.challenges(), train.responses(),
                                   parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.93);
}

TEST(Perceptron, TracksMistakes) {
  Rng rng(25);
  std::vector<std::vector<double>> X{{1.0, 1.0}, {-1.0, 1.0}};
  std::vector<int> y{+1, -1};
  const auto result = Perceptron().fit(X, y, rng);
  EXPECT_GT(result.mistakes, 0u);  // at least the first update
  EXPECT_TRUE(result.converged);
}

TEST(Perceptron, ValidatesInputs) {
  Rng rng(1);
  const Perceptron learner;
  EXPECT_THROW(learner.fit({}, {}, rng), std::invalid_argument);
  EXPECT_THROW(learner.fit({{1.0}}, {2}, rng), std::invalid_argument);
  EXPECT_THROW(learner.fit({{1.0}, {1.0, 2.0}}, {1, -1}, rng),
               std::invalid_argument);
}

// ------------------------------------------------------------- logistic

TEST(Logistic, LearnsArbiterPufInParityFeatures) {
  Rng rng(27);
  const ArbiterPuf puf(24, 0.0, rng);
  Rng collect(28);
  const CrpSet all = CrpSet::collect_uniform(puf, 4000, collect);
  const auto [train, test] = all.split_at(3000);

  Rng train_rng(29);
  const LogisticRegression learner;
  const LinearModel model = learner.fit_model(
      train.challenges(), train.responses(), parity_with_bias, train_rng);
  EXPECT_GT(test.accuracy_of(model), 0.95);
}

TEST(Logistic, ToleratesResponseNoiseBetterThanItsTrainingError) {
  // The classic empirical modeling-attack setting [8]: noisy CRPs in, still
  // a high-accuracy model of the ideal PUF out.
  Rng rng(31);
  const ArbiterPuf puf(16, 0.5, rng);
  Rng collect(32);
  const CrpSet noisy_train = CrpSet::collect_noisy(puf, 3000, collect);
  const CrpSet clean_test = CrpSet::collect_uniform(puf, 1500, collect);

  Rng train_rng(33);
  const LinearModel model =
      LogisticRegression().fit_model(noisy_train.challenges(),
                                     noisy_train.responses(),
                                     parity_with_bias, train_rng);
  EXPECT_GT(clean_test.accuracy_of(model), 0.9);
}

TEST(Logistic, ReportsLossAndIterations) {
  Rng rng(35);
  std::vector<std::vector<double>> X{{1.0, 1.0}, {-1.0, 1.0}, {0.5, 1.0}};
  std::vector<int> y{+1, -1, +1};
  LogisticResult stats;
  const auto result = LogisticRegression().fit(X, y, rng);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_GE(result.final_loss, 0.0);
  // fit_model over a feature map producing the same rows reports the same
  // fit through its stats out-parameter.
  const std::vector<BitVec> challenges{BitVec::from_string("00"),
                                       BitVec::from_string("10"),
                                       BitVec::from_string("01")};
  const FeatureMap rows_of = [&](const BitVec& c) {
    return X[static_cast<std::size_t>(c.get(0)) +
             2 * static_cast<std::size_t>(c.get(1))];
  };
  Rng model_rng(35);
  const LinearModel model = LogisticRegression().fit_model(
      challenges, y, rows_of, model_rng, &stats);
  EXPECT_EQ(stats.weights, result.weights);
  EXPECT_EQ(stats.iterations, result.iterations);
  EXPECT_EQ(stats.final_loss, result.final_loss);
  EXPECT_EQ(stats.deadline_hit, result.deadline_hit);
  EXPECT_EQ(model.weights(), result.weights);
}

TEST(Logistic, ValidatesInputs) {
  Rng rng(1);
  const LogisticRegression learner;
  EXPECT_THROW(learner.fit({}, {}, rng), std::invalid_argument);
  EXPECT_THROW(learner.fit({{1.0}}, {0}, rng), std::invalid_argument);
  // fit_model checks labels and rows before it builds the feature buffer.
  const std::vector<BitVec> challenges{BitVec::from_string("01"),
                                       BitVec::from_string("10")};
  EXPECT_THROW(learner.fit_model(challenges, {+1}, pm_with_bias, rng),
               std::invalid_argument);
  EXPECT_THROW(learner.fit_model(challenges, {+1, 0}, pm_with_bias, rng),
               std::invalid_argument);
  EXPECT_THROW(learner.fit_model({}, {}, pm_with_bias, rng),
               std::invalid_argument);
  const FeatureMap ragged = [](const BitVec& c) {
    return std::vector<double>(c.get(0) ? 2 : 3, 1.0);
  };
  EXPECT_THROW(learner.fit_model(challenges, {+1, -1}, ragged, rng),
               std::invalid_argument);
  const FeatureMap empty_rows = [](const BitVec&) {
    return std::vector<double>{};
  };
  EXPECT_THROW(learner.fit_model(challenges, {+1, -1}, empty_rows, rng),
               std::invalid_argument);
}

// The training loop as it was before the flat four-row kernel, copied
// verbatim (minus its metrics): one row at a time, two exp calls per
// example, the loss summed inside the loop. The kernel must reproduce it
// bit for bit.
LogisticResult reference_fit(const LogisticConfig& config_,
                             const std::vector<std::vector<double>>& X,
                             const std::vector<int>& y, Rng& rng) {
  const std::size_t dim = X.front().size();
  const double m = static_cast<double>(X.size());
  std::vector<double> w(dim);
  for (auto& weight : w) weight = 0.01 * rng.gaussian();
  std::vector<double> step(dim, config_.init_step);
  std::vector<double> prev_grad(dim, 0.0);

  double loss = 0.0;
  std::size_t iter = 0;
  bool deadline_hit = false;
  const auto fit_start = std::chrono::steady_clock::now();  // lint:wallclock-ok
  for (; iter < config_.max_iters; ++iter) {
    if (config_.max_seconds != std::numeric_limits<double>::infinity() &&
        std::chrono::duration<double>(  // lint:wallclock-ok
            std::chrono::steady_clock::now() - fit_start)
                .count() >= config_.max_seconds) {
      deadline_hit = true;
      break;
    }
    std::vector<double> grad(dim, 0.0);
    loss = 0.0;
    for (std::size_t i = 0; i < X.size(); ++i) {
      double score = 0.0;
      for (std::size_t j = 0; j < dim; ++j) score += w[j] * X[i][j];
      const double z = static_cast<double>(y[i]) * score;
      const double nll = z > 0 ? std::log1p(std::exp(-z))
                               : -z + std::log1p(std::exp(z));
      loss += nll / m;
      const double sig = z > 0 ? std::exp(-z) / (1.0 + std::exp(-z))
                               : 1.0 / (1.0 + std::exp(z));
      const double coeff = -static_cast<double>(y[i]) * sig / m;
      for (std::size_t j = 0; j < dim; ++j) grad[j] += coeff * X[i][j];
    }

    double grad_norm = 0.0;
    for (auto g : grad) grad_norm += g * g;
    if (std::sqrt(grad_norm) < config_.tolerance) break;

    for (std::size_t j = 0; j < dim; ++j) {
      const double sign_product = grad[j] * prev_grad[j];
      if (sign_product > 0.0)
        step[j] = std::min(step[j] * config_.step_up, config_.max_step);
      else if (sign_product < 0.0)
        step[j] = std::max(step[j] * config_.step_down, config_.min_step);
      if (grad[j] > 0.0)
        w[j] -= step[j];
      else if (grad[j] < 0.0)
        w[j] += step[j];
      prev_grad[j] = grad[j];
    }
  }

  LogisticResult result;
  result.weights = std::move(w);
  result.iterations = iter;
  result.final_loss = loss;
  result.deadline_hit = deadline_hit;
  return result;
}

void expect_bitwise_equal(const LogisticResult& got,
                          const LogisticResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.deadline_hit, want.deadline_hit) << where;
  EXPECT_EQ(std::memcmp(&got.final_loss, &want.final_loss, sizeof(double)),
            0)
      << where << ": final_loss " << got.final_loss << " vs "
      << want.final_loss;
  ASSERT_EQ(got.weights.size(), want.weights.size()) << where;
  EXPECT_EQ(std::memcmp(got.weights.data(), want.weights.data(),
                        got.weights.size() * sizeof(double)),
            0)
      << where << ": weights differ";
}

TEST(Logistic, FitMatchesReferenceKernelBitForBit) {
  const std::size_t n = 8;
  const std::vector<std::pair<std::string, FeatureMap>> maps{
      {"parity", parity_with_bias},
      {"pm", pm_with_bias},
      {"monomial2",
       [](const BitVec& c) { return monomial_features(c, 2); }},
  };
  // One exit path each: the gradient-norm tolerance (after some steps, and
  // at the very first gradient), running out of max_iters, and a deadline
  // that expires before the first iteration.
  LogisticConfig tolerance;
  tolerance.tolerance = 2e-2;
  LogisticConfig first_gradient;
  first_gradient.tolerance = 1e9;
  LogisticConfig out_of_iters;
  out_of_iters.max_iters = 7;
  LogisticConfig deadline;
  deadline.max_seconds = 0.0;
  const std::vector<std::pair<std::string, LogisticConfig>> exits{
      {"tolerance", tolerance}, {"first_gradient", first_gradient},
      {"max_iters", out_of_iters}, {"deadline", deadline}};

  // Row counts 1, 3 and 5 leave tails of every length after the four-row
  // blocks; 2001 is a long run of full blocks plus a one-row tail.
  std::size_t tolerance_breaks = 0;
  std::size_t iters_spent = 0;
  for (const std::size_t rows : {1, 3, 5, 2001}) {
    Rng data_rng(100 + rows);
    const ArbiterPuf puf(n, 0.0, data_rng);
    std::vector<BitVec> challenges;
    std::vector<int> labels;
    for (std::size_t i = 0; i < rows; ++i) {
      BitVec c(n);
      for (std::size_t b = 0; b < n; ++b) c.set(b, data_rng.coin());
      // A few flipped labels keep the fit from separating the data.
      labels.push_back(data_rng.coin() && data_rng.coin() && data_rng.coin()
                           ? -puf.eval_pm(c)
                           : puf.eval_pm(c));
      challenges.push_back(std::move(c));
    }
    // The existing 0.5-valued rows, cycled to the row count.
    const std::vector<std::vector<double>> halves{
        {1.0, 1.0}, {-1.0, 1.0}, {0.5, 1.0}};

    for (const auto& [exit_name, config] : exits) {
      const LogisticRegression learner(config);
      for (const auto& [map_name, features] : maps) {
        const std::string where = map_name + " rows=" +
                                  std::to_string(rows) + " exit=" + exit_name;
        std::vector<std::vector<double>> X;
        for (const auto& c : challenges) X.push_back(features(c));
        Rng ref_rng(7), fit_rng(7), model_rng(7);
        const LogisticResult want = reference_fit(config, X, labels, ref_rng);
        expect_bitwise_equal(learner.fit(X, labels, fit_rng), want,
                             where + " fit");
        LogisticResult stats;
        (void)learner.fit_model(challenges, labels, features, model_rng,
                                &stats);
        expect_bitwise_equal(stats, want, where + " fit_model");
        if (exit_name == "tolerance" && want.iterations < config.max_iters)
          ++tolerance_breaks;
        if (exit_name == "max_iters" && want.iterations == 7) ++iters_spent;
        if (exit_name == "first_gradient") {
          EXPECT_EQ(want.iterations, 0u) << where;
          EXPECT_GT(want.final_loss, 0.0) << where;
        }
        if (exit_name == "deadline") {
          EXPECT_EQ(want.iterations, 0u) << where;
          EXPECT_TRUE(want.deadline_hit) << where;
        }
      }

      std::vector<std::vector<double>> X;
      std::vector<int> y;
      for (std::size_t i = 0; i < rows; ++i) {
        X.push_back(halves[i % halves.size()]);
        y.push_back(i % halves.size() == 1 ? -1 : +1);
      }
      Rng ref_rng(35), fit_rng(35);
      expect_bitwise_equal(learner.fit(X, y, fit_rng),
                           reference_fit(config, X, y, ref_rng),
                           "halves rows=" + std::to_string(rows) +
                               " exit=" + exit_name);
    }
  }
  // The tolerance and max_iters exits must actually be taken, not just
  // configured (a one-row fit can converge inside 7 iterations).
  EXPECT_GT(tolerance_breaks, 0u);
  EXPECT_GT(iters_spent, 0u);
}

TEST(Logistic, FitKeepsRowOrderInEveryGradientSum) {
  // RProp moves each weight by the *sign* of its gradient, so rounding
  // noise in a gradient sum rarely reaches the weights. This data makes
  // one sum's sign depend on its order. The driver column (2^80) saturates
  // every margin, so each misclassified row has sigma = 1 exactly and
  // coefficient -y/8. The probe column then sums to exactly 0 in row order
  // and to a nonzero value under a pairwise, per-block, lane-split or
  // reversed summation: a reordered kernel moves the probe weight on the
  // first step where the reference leaves it.
  const double big = 9007199254740992.0;  // 2^53
  const std::vector<double> probe{-2.0, 2.0, -2.0, -big, -1.0, 2.0, 2.0, big};
  std::vector<std::vector<double>> X;
  for (const double p : probe) X.push_back({std::ldexp(1.0, 80), p});

  // Which label sign misclassifies the rows depends on the initial driver
  // weight; fit both and require that one of them took a step.
  std::size_t stepped = 0;
  for (const int label : {+1, -1}) {
    const std::vector<int> y(probe.size(), label);
    Rng ref_rng(3), fit_rng(3);
    const LogisticResult want = reference_fit({}, X, y, ref_rng);
    expect_bitwise_equal(LogisticRegression().fit(X, y, fit_rng), want,
                         "probe label=" + std::to_string(label));
    if (want.iterations > 0) ++stepped;
  }
  EXPECT_EQ(stepped, 1u);
}

}  // namespace
