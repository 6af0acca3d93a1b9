#include "ml/robust/resilient.hpp"

#include <algorithm>
#include <cmath>

#include "support/require.hpp"

namespace pitfalls::ml::robust {

QueryStatus MajorityVoteOracle::retry(MembershipOracle& oracle,
                                      const support::BitVec& x,
                                      const RetryPolicy& policy,
                                      int& response) {
  PITFALLS_REQUIRE(policy.max_attempts > 0, "need at least one attempt");
  auto& registry = obs::MetricsRegistry::global();
  std::size_t backoff = 1;
  for (std::size_t tries = 1;; ++tries) {
    QueryStatus status = QueryStatus::answered;
    forward(oracle, {&x, 1}, {&response, 1}, {&status, 1});
    if (status != QueryStatus::dropped) return status;
    registry.counter("robust.retry.attempts").add(1);
    if (tries >= policy.max_attempts) {
      registry.counter("robust.retry.failures").add(1);
      return status;
    }
    // Simulated exponential backoff: the wait is booked, not slept.
    registry.counter("robust.retry.backoff_steps").add(backoff);
    backoff *= 2;
  }
}

std::size_t chernoff_votes(double eta, double confidence) {
  PITFALLS_REQUIRE(eta >= 0.0 && eta < 0.5,
                   "majority voting needs a flip rate below 1/2");
  PITFALLS_REQUIRE(confidence > 0.0 && confidence < 1.0,
                   "confidence must be in (0,1)");
  const double gap = 0.5 - eta;
  const double r = std::log(1.0 / (1.0 - confidence)) / (2.0 * gap * gap);
  auto votes = static_cast<std::size_t>(std::ceil(r));
  votes = std::max<std::size_t>(votes, 1);
  return votes % 2 == 0 ? votes + 1 : votes;
}

MajorityVoteOracle::MajorityVoteOracle(MembershipOracle& inner,
                                       const MajorityVoteConfig& config)
    : inner_(&inner),
      config_(config),
      votes_per_query_(std::min(
          chernoff_votes(config.assumed_flip_rate, config.confidence),
          config.max_votes | 1)),
      vote_counter_(
          &obs::MetricsRegistry::global().counter("robust.vote.votes")) {
  PITFALLS_REQUIRE(config.max_votes > 0, "max_votes must be > 0");
}

std::size_t MajorityVoteOracle::num_vars() const {
  return inner_->num_vars();
}

std::size_t MajorityVoteOracle::answer(std::span<const BitVec> xs,
                                       std::span<int> out,
                                       std::span<QueryStatus> status) {
  const std::size_t majority = votes_per_query_ / 2 + 1;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    count();
    std::size_t plus = 0;
    std::size_t minus = 0;
    // Early stop once one side holds an unassailable majority of the full r
    // votes (the full-r outcome by construction); r >= 1 sets status[i].
    while (plus < majority && minus < majority) {
      int vote = 0;
      status[i] = retry(*inner_, xs[i], config_.retry, vote);
      if (status[i] != QueryStatus::answered) break;
      ++votes_cast_;
      vote_counter_->add(1);
      if (vote > 0)
        ++plus;
      else
        ++minus;
    }
    if (status[i] == QueryStatus::refused) return i + 1;
    if (status[i] == QueryStatus::dropped) continue;
    obs::MetricsRegistry::global()
        .histogram("robust.vote.votes_per_query")
        .observe(static_cast<double>(plus + minus));
    out[i] = plus >= majority ? +1 : -1;
  }
  return xs.size();
}

}  // namespace pitfalls::ml::robust
