// Fault-injection layer for oracle access — the realistic hardware channel
// of Sections IV–V made explicit. Every learner in src/ml was written
// against a perfect, unlimited MembershipOracle; real CRP interfaces are
// noisy (footnote 1's metastability/aging/measurement noise), lossy
// (transient non-responses) and throttled (lockdown-style lifetime budgets,
// src/puf/lockdown.hpp). FaultyMembershipOracle decorates any
// MembershipOracle with exactly those defects so the query-complexity
// numbers the paper trades in can be measured under the adversary model the
// hardware actually presents.
//
// Determinism contract (DESIGN.md §9): every injected fault is a pure
// function of (seed, raw query index, challenge), derived through the same
// SplitMix64 stream construction the parallel layer uses
// (support::rng_for_chunk). Oracle queries are serial — learners consume
// answers one at a time — so the fault sequence is byte-identical for every
// PITFALLS_THREADS value, and identical seeds replay identical fault
// sequences regardless of what the surrounding code does with the pool.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "ml/oracle.hpp"

namespace pitfalls::ml::robust {

/// A wall-clock deadline expired mid-learning (thrown by the robust teacher
/// wrappers, never by FaultyMembershipOracle itself).
class DeadlineExceededError final : public OracleFaultError {
 public:
  using OracleFaultError::OracleFaultError;
};

struct FaultConfig {
  /// i.i.d. classification-noise rate η: each answered query flips with
  /// this probability, independently of everything else.
  double flip_rate = 0.0;

  /// Probability (per answered query) that a burst fault starts; for the
  /// next `burst_length` queries every response is flipped — the correlated
  /// error pattern of supply glitches / temperature steps.
  double burst_rate = 0.0;
  std::size_t burst_length = 8;

  /// Challenge-correlated metastability, reusing the PUF noise-channel
  /// semantics of src/puf/puf.hpp: each challenge carries a fixed latent
  /// margin |N(0,1)| (derived from its hash), each measurement adds
  /// N(0, metastable_sigma) noise, and the response flips when the noise
  /// crosses the margin. Small-margin challenges are persistently
  /// unstable; large-margin ones are rock solid — unlike flip_rate, the
  /// error probability is attached to the challenge, not the query.
  double metastable_sigma = 0.0;

  /// Probability that a query yields no response at all (the round is
  /// consumed, the element's status is dropped).
  double drop_rate = 0.0;

  /// Hard lifetime budget on physical queries (lockdown interface). Once
  /// spent, every query is refused.
  std::size_t query_budget = std::numeric_limits<std::size_t>::max();
};

/// Decorator injecting the FaultConfig defects into any MembershipOracle.
/// All fault events are mirrored into the `robust.faults.*` metrics.
class FaultyMembershipOracle final : public MembershipOracle {
 public:
  FaultyMembershipOracle(MembershipOracle& inner, const FaultConfig& config,
                         std::uint64_t seed);

  std::size_t num_vars() const override;

  const FaultConfig& config() const { return config_; }

  /// Budget-refill continuation (DESIGN.md §16): raise the lifetime query
  /// budget of a live channel without disturbing its fault-stream position.
  /// The per-query fault streams are keyed by the raw query index, so a
  /// channel that spent B queries, was refilled to 2B and then spends B more
  /// draws exactly the fault sequence a fresh channel with budget 2B would
  /// have drawn — refilling changes *when* the lockdown trips and nothing
  /// else. Shrinking is rejected: a budget below the spent count would
  /// re-trip the lockdown retroactively.
  void refill_budget(std::size_t new_budget);

  /// Physical queries still answerable before the lockdown trips.
  std::size_t remaining_budget() const;

  /// Raw (attempted) physical queries, including dropped responses.
  std::size_t raw_queries() const { return raw_queries_; }

  /// Complete fault-channel position for checkpoint/resume (src/store):
  /// raw_queries indexes the per-query fault streams, burst_remaining is
  /// the countdown of an in-flight burst, flips/drops are the tallies the
  /// accessors above report. restore_state() puts the channel exactly where
  /// a recorded run left it WITHOUT touching the inner oracle — replayed
  /// queries are served from the snapshot log and must never re-charge the
  /// lifetime budget (remaining_budget() derives from raw_queries).
  struct State {
    std::size_t raw_queries = 0;
    std::size_t burst_remaining = 0;
    std::size_t flips = 0;
    std::size_t drops = 0;
  };
  State state() const {
    return {raw_queries_, burst_remaining_, flips_, drops_};
  }
  void restore_state(const State& state);

  /// Responses flipped by any channel (iid + burst + metastable).
  std::size_t faults_injected() const { return flips_; }
  std::size_t responses_dropped() const { return drops_; }

 private:
  /// The exact scalar fault sequence: the coins never read the inner
  /// response, so all elements are drawn first, in order; each run of
  /// answered ones then goes to the inner oracle in one forward.
  std::size_t answer(std::span<const BitVec> xs, std::span<int> out,
                     std::span<QueryStatus> status) override;

  /// One raw query's fault draw: budget check, then the per-query stream's
  /// drop, burst, flip and metastable coins, advancing the channel and its
  /// counters. `flipped` is set when an answer is to be negated.
  QueryStatus draw(const BitVec& x, char& flipped);

  MembershipOracle* inner_;
  FaultConfig config_;
  std::uint64_t seed_;
  std::uint64_t margin_seed_;
  std::size_t raw_queries_ = 0;
  std::size_t burst_remaining_ = 0;
  std::size_t flips_ = 0;
  std::size_t drops_ = 0;
  obs::Counter* flip_counter_;
  obs::Counter* burst_counter_;
  obs::Counter* metastable_counter_;
  obs::Counter* drop_counter_;
  obs::Counter* budget_counter_;
  std::vector<char> flip_;  // answer() scratch: the drawn flip per element
};

}  // namespace pitfalls::ml::robust
