#include "ml/robust/learners.hpp"

#include <utility>
#include <vector>

#include "ml/chow.hpp"
#include "ml/logistic.hpp"
#include "ml/perceptron.hpp"
#include "support/combinatorics.hpp"
#include "support/require.hpp"

namespace pitfalls::ml::robust {

namespace {

/// Uniform-challenge examples pulled through the oracle, with the defect
/// bookkeeping the outcome needs. Collection is strictly serial — part of
/// the determinism contract: the example stream is a function of (rng,
/// oracle seed) alone, never of the thread pool.
struct Collected {
  std::vector<BitVec> challenges;
  std::vector<int> responses;
  std::size_t dropped = 0;     // challenges abandoned after retry exhaustion
  bool budget_hit = false;
  bool deadline_hit = false;
};

Collected collect(MembershipOracle& oracle, std::size_t m,
                  const RetryPolicy& retry, const Deadline& deadline,
                  support::Rng& rng) {
  Collected out;
  const std::size_t n = oracle.num_vars();
  out.challenges.reserve(m);
  out.responses.reserve(m);
  while (out.challenges.size() < m) {
    if (deadline.expired()) {
      out.deadline_hit = true;
      break;
    }
    BitVec c(n);
    for (std::size_t b = 0; b < n; ++b) c.set(b, rng.coin());
    int r = 0;
    const QueryStatus status = MajorityVoteOracle::retry(oracle, c, retry, r);
    if (status == QueryStatus::refused) {
      out.budget_hit = true;
      break;
    }
    if (status == QueryStatus::dropped) {
      ++out.dropped;  // this challenge is lost; budget was still consumed
      continue;
    }
    out.challenges.push_back(std::move(c));
    out.responses.push_back(r);
  }
  return out;
}

/// Status per the shared degradation policy: the budget lockdown dominates
/// (the run can never get more data), then the deadline, then the held-out
/// verdict. A completed run with no held-out set (holdout_queries = 0)
/// counts as converged — there is nothing to refute it with.
template <typename H>
LearnOutcome<H> assemble(std::optional<H> hypothesis, bool budget_hit,
                         bool deadline_hit, const Collected& holdout,
                         const RobustLearnConfig& config,
                         std::size_t queries_spent,
                         std::map<std::string, double> diagnostics) {
  LearnOutcome<H> out;
  out.queries_spent = queries_spent;
  double heldout = -1.0;
  if (hypothesis.has_value() && !holdout.challenges.empty()) {
    // Every hypothesis class here is a BooleanFunction, so score the
    // held-out set through the batch plane in one call.
    std::vector<int> predicted(holdout.challenges.size());
    hypothesis->eval_pm_batch(holdout.challenges, predicted);
    obs::observe_batch("robust.holdout", holdout.challenges.size());
    std::size_t agree = 0;
    for (std::size_t i = 0; i < holdout.challenges.size(); ++i)
      if (predicted[i] == holdout.responses[i]) ++agree;
    heldout = static_cast<double>(agree) /
              static_cast<double>(holdout.challenges.size());
    diagnostics["heldout_accuracy"] = heldout;
  }
  diagnostics["heldout_examples"] =
      static_cast<double>(holdout.challenges.size());

  if (budget_hit)
    out.status = LearnStatus::budget_exhausted;
  else if (deadline_hit)
    out.status = LearnStatus::deadline_exceeded;
  else if (!hypothesis.has_value())
    out.status = LearnStatus::budget_exhausted;
  else if (heldout < 0.0 || heldout >= config.target_accuracy)
    out.status = LearnStatus::converged;
  else
    out.status = LearnStatus::noise_ceiling;

  out.best_hypothesis = std::move(hypothesis);
  out.diagnostics = std::move(diagnostics);

  auto& registry = obs::MetricsRegistry::global();
  registry.counter(std::string("robust.learn.outcome.") +
                   to_string(out.status))
      .add(1);
  if (out.status != LearnStatus::converged)
    registry.counter("robust.learn.degraded_completions").add(1);
  if (heldout >= 0.0)
    registry.histogram("robust.learn.heldout_accuracy").observe(heldout);
  registry.counter("robust.learn.queries_spent").add(queries_spent);
  return out;
}

/// Shared front half of the data-driven learners: held-out set first (so a
/// starved run can still report an accuracy), then the training set.
struct Datasets {
  Collected holdout;
  Collected train;
  bool budget_hit = false;
  bool deadline_hit = false;
  std::map<std::string, double> diagnostics;
};

Datasets collect_datasets(MembershipOracle& oracle,
                          const RobustLearnConfig& config,
                          const Deadline& deadline, support::Rng& rng) {
  Datasets data;
  data.holdout =
      collect(oracle, config.holdout_queries, config.retry, deadline, rng);
  if (!data.holdout.budget_hit && !data.holdout.deadline_hit)
    data.train =
        collect(oracle, config.train_queries, config.retry, deadline, rng);
  data.budget_hit = data.holdout.budget_hit || data.train.budget_hit;
  data.deadline_hit = data.holdout.deadline_hit || data.train.deadline_hit;
  data.diagnostics["train_examples"] =
      static_cast<double>(data.train.challenges.size());
  data.diagnostics["dropped_queries"] =
      static_cast<double>(data.holdout.dropped + data.train.dropped);
  return data;
}

}  // namespace

LearnOutcome<LinearModel> robust_perceptron(MembershipOracle& oracle,
                                            const FeatureMap& features,
                                            const RobustLearnConfig& config,
                                            support::Rng& rng) {
  const Deadline deadline(config.deadline_seconds);
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, deadline, rng);

  std::optional<LinearModel> model;
  if (!data.train.challenges.empty()) {
    PerceptronConfig pc;
    if (config.max_iterations > 0) pc.max_epochs = config.max_iterations;
    pc.max_seconds = deadline.remaining_seconds();
    PerceptronResult stats;
    model = Perceptron(pc).fit_model(data.train.challenges,
                                     data.train.responses, features, rng,
                                     &stats);
    data.deadline_hit = data.deadline_hit || stats.deadline_hit;
    data.diagnostics["epochs"] = static_cast<double>(stats.epochs);
    data.diagnostics["mistakes"] = static_cast<double>(stats.mistakes);
  }
  return assemble(std::move(model), data.budget_hit, data.deadline_hit,
                  data.holdout, config, oracle.queries() - before,
                  std::move(data.diagnostics));
}

LearnOutcome<LinearModel> robust_logistic(MembershipOracle& oracle,
                                          const FeatureMap& features,
                                          const RobustLearnConfig& config,
                                          support::Rng& rng) {
  const Deadline deadline(config.deadline_seconds);
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, deadline, rng);

  std::optional<LinearModel> model;
  if (!data.train.challenges.empty()) {
    LogisticConfig lc;
    if (config.max_iterations > 0) lc.max_iters = config.max_iterations;
    lc.max_seconds = deadline.remaining_seconds();
    LogisticResult stats;
    model = LogisticRegression(lc).fit_model(data.train.challenges,
                                             data.train.responses, features,
                                             rng, &stats);
    data.deadline_hit = data.deadline_hit || stats.deadline_hit;
    data.diagnostics["iterations"] = static_cast<double>(stats.iterations);
  }
  return assemble(std::move(model), data.budget_hit, data.deadline_hit,
                  data.holdout, config, oracle.queries() - before,
                  std::move(data.diagnostics));
}

LearnOutcome<SparseFourierHypothesis> robust_lmn(
    MembershipOracle& oracle, std::size_t degree,
    const RobustLearnConfig& config, support::Rng& rng) {
  const Deadline deadline(config.deadline_seconds);
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, deadline, rng);

  std::optional<SparseFourierHypothesis> hypothesis;
  if (!data.train.challenges.empty()) {
    const LmnLearner learner({.degree = degree, .prune_below = 0.0});
    hypothesis = learner.learn_from_data(data.train.challenges,
                                         data.train.responses);
    data.deadline_hit = data.deadline_hit || deadline.expired();
    data.diagnostics["fourier_terms"] =
        static_cast<double>(hypothesis->num_terms());
  }
  return assemble(std::move(hypothesis), data.budget_hit, data.deadline_hit,
                  data.holdout, config, oracle.queries() - before,
                  std::move(data.diagnostics));
}

LearnOutcome<boolfn::Ltf> robust_chow(MembershipOracle& oracle,
                                      const RobustLearnConfig& config,
                                      support::Rng& rng) {
  const Deadline deadline(config.deadline_seconds);
  const std::size_t before = oracle.queries();
  Datasets data = collect_datasets(oracle, config, deadline, rng);

  std::optional<boolfn::Ltf> ltf;
  if (!data.train.challenges.empty()) {
    const ChowParameters chow =
        estimate_chow(data.train.challenges, data.train.responses);
    ChowReconstructionConfig rc;
    rc.correction_rounds = config.max_iterations;
    ltf = reconstruct_ltf(chow, rc, data.train.challenges);
    data.deadline_hit = data.deadline_hit || deadline.expired();
    data.diagnostics["degree1_weight"] = chow.degree1_weight();
  }
  return assemble(std::move(ltf), data.budget_hit, data.deadline_hit,
                  data.holdout, config, oracle.queries() - before,
                  std::move(data.diagnostics));
}

LearnOutcome<boolfn::AnfPolynomial> robust_anf(MembershipOracle& oracle,
                                               std::size_t degree,
                                               const RobustLearnConfig& config,
                                               support::Rng& rng) {
  const std::size_t n = oracle.num_vars();
  PITFALLS_REQUIRE(degree <= n, "degree exceeds arity");
  PITFALLS_REQUIRE(support::binomial_sum(n, degree) < (1ULL << 26),
                   "query budget for this degree is impractically large");

  const Deadline deadline(config.deadline_seconds);
  const std::size_t before = oracle.queries();
  Collected holdout =
      collect(oracle, config.holdout_queries, config.retry, deadline, rng);

  boolfn::AnfPolynomial poly(n);
  bool budget_hit = holdout.budget_hit;
  bool deadline_hit = holdout.deadline_hit;
  std::size_t interpolated = 0;
  std::size_t unresolved = 0;
  if (!budget_hit && !deadline_hit) {
    // Same incremental Moebius inversion as learn_anf_bounded_degree, but
    // accumulating best-so-far: a budget/deadline stop keeps the monomials
    // recovered so far, a persistent non-response leaves that coefficient
    // at zero (counted as unresolved) instead of aborting the run.
    for (const auto& subset : support::subsets_up_to_size(n, degree)) {
      if (deadline.expired()) {
        deadline_hit = true;
        break;
      }
      const BitVec point = support::subset_mask(n, subset);
      int response = 0;
      const QueryStatus status =
          MajorityVoteOracle::retry(oracle, point, config.retry, response);
      if (status == QueryStatus::refused) {
        budget_hit = true;
        break;
      }
      if (status == QueryStatus::dropped) {
        ++unresolved;
        continue;
      }
      bool value = response < 0;
      for (const auto& monomial : poly.monomials())
        if (monomial != point && monomial.is_subset_of(point)) value = !value;
      if (value) poly.toggle_monomial(point);
      ++interpolated;
    }
  }

  std::map<std::string, double> diagnostics;
  diagnostics["coefficients_interpolated"] =
      static_cast<double>(interpolated);
  diagnostics["coefficients_unresolved"] = static_cast<double>(unresolved);
  diagnostics["terms"] = static_cast<double>(poly.sparsity());
  return assemble(std::optional<boolfn::AnfPolynomial>(std::move(poly)),
                  budget_hit, deadline_hit, holdout, config,
                  oracle.queries() - before, std::move(diagnostics));
}

BudgetedDfaTeacher::BudgetedDfaTeacher(DfaTeacher& inner,
                                       std::size_t mq_budget,
                                       std::size_t eq_round_cap,
                                       const Deadline& deadline)
    : inner_(&inner),
      mq_budget_(mq_budget),
      eq_round_cap_(eq_round_cap),
      deadline_(&deadline) {}

std::size_t BudgetedDfaTeacher::alphabet_size() const {
  return inner_->alphabet_size();
}

bool BudgetedDfaTeacher::member(const Word& word) {
  if (mq_used_ >= mq_budget_) {
    obs::MetricsRegistry::global().counter("robust.budget.refusals").add(1);
    throw QueryBudgetExhaustedError("DFA membership-query budget exhausted");
  }
  if (deadline_->expired())
    throw DeadlineExceededError("deadline expired during membership query");
  ++mq_used_;
  return inner_->member(word);
}

std::optional<Word> BudgetedDfaTeacher::equivalent(const Dfa& hypothesis) {
  last_hypothesis_ = hypothesis;
  ++eq_rounds_;
  if (eq_round_cap_ > 0 && eq_rounds_ > eq_round_cap_)
    throw DeadlineExceededError("L* equivalence-round cap exceeded");
  if (deadline_->expired())
    throw DeadlineExceededError("deadline expired during equivalence query");
  return inner_->equivalent(hypothesis);
}

LearnOutcome<Dfa> robust_lstar(DfaTeacher& teacher,
                               const RobustLearnConfig& config) {
  const Deadline deadline(config.deadline_seconds);
  BudgetedDfaTeacher guard(teacher, config.train_queries,
                           config.max_iterations, deadline);
  LearnOutcome<Dfa> out;
  LStarStats stats;
  try {
    Dfa dfa = LStarLearner().learn(guard, &stats);
    out.status = LearnStatus::converged;
    out.best_hypothesis = std::move(dfa);
  } catch (const QueryBudgetExhaustedError&) {
    out.status = LearnStatus::budget_exhausted;
    out.best_hypothesis = guard.last_hypothesis();
  } catch (const DeadlineExceededError&) {
    out.status = LearnStatus::deadline_exceeded;
    out.best_hypothesis = guard.last_hypothesis();
  }
  out.queries_spent = guard.mq_used();
  out.diagnostics["mq_used"] = static_cast<double>(guard.mq_used());
  out.diagnostics["eq_rounds"] = static_cast<double>(guard.eq_rounds());
  if (out.best_hypothesis.has_value())
    out.diagnostics["states"] =
        static_cast<double>(out.best_hypothesis->num_states());

  auto& registry = obs::MetricsRegistry::global();
  registry.counter(std::string("robust.learn.outcome.") +
                   to_string(out.status))
      .add(1);
  if (out.status != LearnStatus::converged)
    registry.counter("robust.learn.degraded_completions").add(1);
  registry.counter("robust.learn.queries_spent").add(out.queries_spent);
  return out;
}

}  // namespace pitfalls::ml::robust
