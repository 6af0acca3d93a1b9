// Resilient query strategies over a faulty oracle — the attacker-side
// countermeasures that turn the noisy/lossy channel of faults.hpp back into
// something the src/ml learners can consume.
//
//   * MajorityVoteOracle::retry — bounded retry with (simulated)
//     exponential backoff for transient non-responses. Backoff is accounted
//     in `robust.retry.backoff_steps` rather than slept, since experiments
//     run on simulated hardware time.
//   * MajorityVoteOracle — adaptive repetition: each logical query is
//     answered by the majority of up to r physical votes, with r sized by
//     the Chernoff bound so the majority is wrong with probability at most
//     1 - confidence under an assumed flip rate η. Voting stops early once
//     the leading side is unassailable, so the *expected* physical cost is
//     well below r — the standard CRP-stabilisation trade the paper's
//     "noiseless and stable CRPs" presuppose, now with its query cost
//     on the meter.
#pragma once

#include "ml/robust/faults.hpp"

namespace pitfalls::ml::robust {

struct RetryPolicy {
  /// Total attempts per logical query (first try + retries).
  std::size_t max_attempts = 8;
};

/// Smallest odd vote count r with exp(-2 r (1/2 - eta)^2) <= 1 - confidence:
/// by the Chernoff–Hoeffding bound the majority of r independent votes then
/// errs with probability at most 1 - confidence. Requires eta in [0, 0.5)
/// and confidence in (0, 1).
std::size_t chernoff_votes(double eta, double confidence);

struct MajorityVoteConfig {
  /// The flip rate the vote count is sized for (the attacker's noise
  /// estimate — need not equal the channel's true η).
  double assumed_flip_rate = 0.1;
  /// Target probability that a logical answer is correct.
  double confidence = 0.99;
  /// Hard cap on votes per logical query (applied after Chernoff sizing).
  std::size_t max_votes = 10001;
  RetryPolicy retry{};
};

/// Decorator answering each logical query by Chernoff-sized majority vote
/// over the inner (presumably faulty) oracle. Logical queries are counted
/// on this oracle; physical queries on the inner one. Vote counts land in
/// the `robust.vote.*` metrics.
class MajorityVoteOracle final : public MembershipOracle {
 public:
  MajorityVoteOracle(MembershipOracle& inner, const MajorityVoteConfig& config);

  std::size_t num_vars() const override;

  /// The Chernoff-sized per-query vote budget in force.
  std::size_t votes_per_query() const { return votes_per_query_; }
  /// Physical votes actually cast (early stopping keeps this below
  /// queries() * votes_per_query()).
  std::size_t votes_cast() const { return votes_cast_; }

  /// Query `oracle` on x, retrying a dropped response up to
  /// policy.max_attempts times; each attempt consumes oracle budget, and
  /// like query_pm none books into oracle.batch.*. Returns the last
  /// attempt's status: `answered` (with `response` set), `dropped` once the
  /// attempts are spent, or `refused` at the budget lockdown. Every vote
  /// runs this loop too.
  static QueryStatus retry(MembershipOracle& oracle, const BitVec& x,
                           const RetryPolicy& policy, int& response);

 private:
  /// One vote at a time, each retried on drops: votes stop early per query
  /// and the inner fault streams are keyed by raw query index, so batching
  /// votes would change votes_cast and every later fault. A query whose
  /// vote runs out of retries is dropped; a refused vote ends the batch.
  std::size_t answer(std::span<const BitVec> xs, std::span<int> out,
                     std::span<QueryStatus> status) override;

  MembershipOracle* inner_;
  MajorityVoteConfig config_;
  std::size_t votes_per_query_;
  std::size_t votes_cast_ = 0;
  obs::Counter* vote_counter_;
};

}  // namespace pitfalls::ml::robust
