#include "ml/robust/faults.hpp"

#include <cmath>

#include "support/parallel.hpp"
#include "support/require.hpp"

namespace pitfalls::ml::robust {

FaultyMembershipOracle::FaultyMembershipOracle(MembershipOracle& inner,
                                               const FaultConfig& config,
                                               std::uint64_t seed)
    : inner_(&inner),
      config_(config),
      seed_(seed),
      // Distinct stream for the per-challenge latent margins so a margin
      // draw can never collide with a per-query draw at the same index.
      margin_seed_(seed ^ 0x6d617267696e2121ULL),
      flip_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.iid_flips")),
      burst_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.burst_flips")),
      metastable_counter_(&obs::MetricsRegistry::global().counter(
          "robust.faults.metastable_flips")),
      drop_counter_(
          &obs::MetricsRegistry::global().counter("robust.faults.drops")),
      budget_counter_(&obs::MetricsRegistry::global().counter(
          "robust.budget.refusals")) {
  PITFALLS_REQUIRE(config.flip_rate >= 0.0 && config.flip_rate < 0.5,
                   "flip rate must be in [0, 0.5)");
  PITFALLS_REQUIRE(config.burst_rate >= 0.0 && config.burst_rate < 1.0,
                   "burst rate must be in [0, 1)");
  PITFALLS_REQUIRE(config.drop_rate >= 0.0 && config.drop_rate < 1.0,
                   "drop rate must be in [0, 1)");
  PITFALLS_REQUIRE(config.metastable_sigma >= 0.0,
                   "metastability sigma must be >= 0");
  PITFALLS_REQUIRE(config.burst_length > 0, "burst length must be > 0");
}

std::size_t FaultyMembershipOracle::num_vars() const {
  return inner_->num_vars();
}

void FaultyMembershipOracle::restore_state(const State& state) {
  raw_queries_ = state.raw_queries;
  burst_remaining_ = state.burst_remaining;
  flips_ = state.flips;
  drops_ = state.drops;
}

void FaultyMembershipOracle::refill_budget(std::size_t new_budget) {
  PITFALLS_REQUIRE(new_budget >= config_.query_budget,
                   "budget refill must not shrink the lifetime budget");
  config_.query_budget = new_budget;
}

std::size_t FaultyMembershipOracle::remaining_budget() const {
  return raw_queries_ >= config_.query_budget
             ? 0
             : config_.query_budget - raw_queries_;
}

QueryStatus FaultyMembershipOracle::draw(const BitVec& x, char& flipped) {
  flipped = 0;
  if (raw_queries_ >= config_.query_budget) {
    budget_counter_->add(1);
    return QueryStatus::refused;
  }
  // Per-query stream keyed by the raw index: the fault sequence is a pure
  // function of (seed, index, challenge) and therefore identical across
  // runs and thread counts. Draw order below is part of that contract.
  support::Rng q = support::rng_for_chunk(seed_, raw_queries_);
  ++raw_queries_;
  count();

  if (config_.drop_rate > 0.0 && q.bernoulli(config_.drop_rate)) {
    ++drops_;
    drop_counter_->add(1);
    return QueryStatus::dropped;
  }

  if (burst_remaining_ > 0) {
    --burst_remaining_;
    flipped = !flipped;
    ++flips_;
    burst_counter_->add(1);
  } else if (config_.burst_rate > 0.0 && q.bernoulli(config_.burst_rate)) {
    // The starting query is the first flipped query of the burst.
    burst_remaining_ = config_.burst_length - 1;
    flipped = !flipped;
    ++flips_;
    burst_counter_->add(1);
  }

  if (config_.flip_rate > 0.0 && q.bernoulli(config_.flip_rate)) {
    flipped = !flipped;
    ++flips_;
    flip_counter_->add(1);
  }

  if (config_.metastable_sigma > 0.0) {
    // PUF noise-channel semantics (src/puf/puf.hpp): the challenge has a
    // fixed latent margin |N(0,1)|; one measurement adds N(0, sigma) noise
    // and the sign flips when the noise crosses the margin. The margin is
    // keyed by the challenge hash so repeated queries of one challenge see
    // one margin — the correlated part — while the additive noise is drawn
    // from the per-query stream — the transient part.
    support::Rng margin_rng = support::rng_for_chunk(margin_seed_, x.hash());
    const double margin = std::abs(margin_rng.gaussian());
    if (q.gaussian(0.0, config_.metastable_sigma) < -margin) {
      flipped = !flipped;
      ++flips_;
      metastable_counter_->add(1);
    }
  }
  return QueryStatus::answered;
}

std::size_t FaultyMembershipOracle::answer(std::span<const BitVec> xs,
                                           std::span<int> out,
                                           std::span<QueryStatus> status) {
  flip_.resize(xs.size());
  std::size_t done = 0;
  while (done < xs.size()) {
    status[done] = draw(xs[done], flip_[done]);
    if (status[done++] == QueryStatus::refused) break;
  }
  // Forward each run of answered elements; `end` is the element after it.
  for (std::size_t begin = 0, end = 0; begin < done; begin = end + 1) {
    end = begin;
    while (end < done && status[end] == QueryStatus::answered) ++end;
    if (end == begin) continue;
    const std::size_t got =
        forward(*inner_, xs.subspan(begin, end - begin),
                out.subspan(begin, end - begin),
                status.subspan(begin, end - begin));
    for (std::size_t j = begin; j < begin + got; ++j)
      if (flip_[j] != 0 && status[j] == QueryStatus::answered) out[j] = -out[j];
    if (status[begin + got - 1] == QueryStatus::refused) return begin + got;
  }
  return done;
}

}  // namespace pitfalls::ml::robust
