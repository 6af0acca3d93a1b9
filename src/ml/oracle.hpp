// Attacker access models (Section IV of the paper) as oracle interfaces.
//
//   * MembershipOracle — the attacker picks the input (chosen-challenge /
//     chosen-plaintext access). Every call is counted: query complexity is
//     the currency all of Table I trades in.
//   * EquivalenceOracle — the attacker proposes a hypothesis and receives a
//     counterexample or "equivalent". Angluin [22] showed this can be
//     simulated with random examples; SampledEquivalenceOracle implements
//     exactly that simulation (so "EQ is unrealistic for hardware" is not a
//     valid objection — the paper's Section IV point).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>

#include "boolfn/boolean_function.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace pitfalls::ml {

using boolfn::BooleanFunction;
using support::BitVec;

/// Base class for everything a faulty channel can signal.
class OracleFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The interface produced no response this round (metastable read-out,
/// dropped authentication frame). The round still consumed budget; retrying
/// the same challenge may succeed.
class TransientFaultError final : public OracleFaultError {
 public:
  using OracleFaultError::OracleFaultError;
};

/// The lifetime query budget is spent — the lockdown tripped. No further
/// query will ever be answered.
class QueryBudgetExhaustedError final : public OracleFaultError {
 public:
  using OracleFaultError::OracleFaultError;
};

/// One element's fate: answered, dropped (round consumed, no response) or
/// refused (lockdown tripped). Journals store the values: never reorder.
enum class QueryStatus : std::uint8_t { answered, dropped, refused };

/// Throw what a dropped or refused status stands for (no-op if answered).
inline void throw_on_fault(QueryStatus status) {
  if (status == QueryStatus::refused)
    throw QueryBudgetExhaustedError("oracle query budget exhausted (lockdown)");
  if (status == QueryStatus::dropped)
    throw TransientFaultError("oracle gave no response (transient fault)");
}

class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;

  virtual std::size_t num_vars() const = 0;

  /// One chosen-input query, +/-1 result: a batch of one that throws on a
  /// drop or refusal (throw_on_fault). Books nothing into oracle.batch.*.
  int query_pm(const BitVec& x) {
    int response = 0;
    QueryStatus status = QueryStatus::answered;
    answer({&x, 1}, {&response, 1}, {&status, 1});
    throw_on_fault(status);
    return response;
  }

  /// F2 view of the same query: +1 -> 0, -1 -> 1.
  bool query_f2(const BitVec& x) { return query_pm(x) < 0; }

  /// Batched queries over equal-length spans, in order: status[i], and out[i]
  /// = query_pm(xs[i]) when answered. Stops after a refusal, not at a drop;
  /// returns the processed count. Books one oracle.batch.* call.
  std::size_t query_pm_batch(std::span<const BitVec> xs, std::span<int> out,
                             std::span<QueryStatus> status) {
    PITFALLS_REQUIRE(xs.size() == out.size() && xs.size() == status.size(),
                     "batch spans must have equal length");
    if (xs.empty()) return 0;
    const std::size_t done = answer(xs, out, status);
    batch_calls_->add(1);
    batch_elements_->add(done);
    batch_size_->observe(static_cast<double>(done));
    return done;
  }

  /// Queries since construction or the last reset_queries().
  std::size_t queries() const { return queries_; }

  /// Queries since construction, unaffected by reset_queries().
  std::size_t lifetime_queries() const { return lifetime_queries_; }

  /// Start a fresh per-phase budget (multi-phase attacks reuse one oracle);
  /// the lifetime count and the global "oracle.membership_queries" counter
  /// keep running.
  void reset_queries() { queries_ = 0; }

 protected:
  /// The one query path, on non-empty spans of equal length, under the
  /// query_pm_batch contract; books nothing into oracle.batch.*.
  virtual std::size_t answer(std::span<const BitVec> xs, std::span<int> out,
                             std::span<QueryStatus> status) = 0;

  /// A decorator's booking-free access to its inner oracle's answer().
  static std::size_t forward(MembershipOracle& inner,
                             std::span<const BitVec> xs, std::span<int> out,
                             std::span<QueryStatus> status) {
    return inner.answer(xs, out, status);
  }

  /// Count k queries, saturating (never wrapping) and mirrored into the
  /// process-wide "oracle.membership_queries" counter.
  void count(std::size_t k = 1) {
    count_unmirrored(k);
    counter_->add(k);
  }

  /// count() without the process-wide metrics mirror — for decorators whose
  /// inner oracle already books the query into "oracle.membership_queries"
  /// when forwarding (store::RecordingOracle). A replayed query books into
  /// store.snapshot.replayed_queries instead, keeping the global counter an
  /// honest count of physical oracle traffic.
  void count_unmirrored(std::size_t k = 1) {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    queries_ = k > kMax - queries_ ? kMax : queries_ + k;
    lifetime_queries_ =
        k > kMax - lifetime_queries_ ? kMax : lifetime_queries_ + k;
  }

 private:
  std::size_t queries_ = 0;
  std::size_t lifetime_queries_ = 0;
  obs::Counter* counter_ =
      &obs::MetricsRegistry::global().counter("oracle.membership_queries");
  obs::Counter* batch_calls_ =
      &obs::MetricsRegistry::global().counter("oracle.batch.calls");
  obs::Counter* batch_elements_ =
      &obs::MetricsRegistry::global().counter("oracle.batch.elements");
  obs::Histogram* batch_size_ =
      &obs::MetricsRegistry::global().histogram("oracle.batch.size");
};

/// Membership access to a concrete function (the unlocked-oracle setting of
/// the SAT attack, or direct CRP access to a PUF).
class FunctionMembershipOracle final : public MembershipOracle {
 public:
  explicit FunctionMembershipOracle(const BooleanFunction& f) : f_(&f) {}
  /// The oracle only references the function; a temporary would dangle.
  explicit FunctionMembershipOracle(BooleanFunction&&) = delete;

  std::size_t num_vars() const override { return f_->num_vars(); }

 private:
  /// Every element is answered: a single one by eval_pm, which skips the
  /// bit-slicing setup, more by the (possibly bit-sliced) eval_pm_batch.
  std::size_t answer(std::span<const BitVec> xs, std::span<int> out,
                     std::span<QueryStatus> status) override {
    count(xs.size());
    if (xs.size() == 1)
      out[0] = f_->eval_pm(xs[0]);
    else
      f_->eval_pm_batch(xs, out);
    std::fill(status.begin(), status.end(), QueryStatus::answered);
    return xs.size();
  }

  const BooleanFunction* f_;
};

class EquivalenceOracle {
 public:
  virtual ~EquivalenceOracle() = default;

  /// A point where hypothesis and target disagree, or nullopt if the oracle
  /// considers them equivalent.
  virtual std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) = 0;

  std::size_t calls() const { return calls_; }

  /// Calls since construction, unaffected by reset_calls() — the reset
  /// symmetry with MembershipOracle::lifetime_queries().
  std::size_t lifetime_calls() const { return lifetime_calls_; }

  /// Per-phase reset, mirroring MembershipOracle::reset_queries().
  void reset_calls() { calls_ = 0; }

 protected:
  void count_call() {
    constexpr auto kMax = std::numeric_limits<std::size_t>::max();
    if (calls_ != kMax) ++calls_;
    if (lifetime_calls_ != kMax) ++lifetime_calls_;
    counter_->add(1);
  }

 private:
  std::size_t calls_ = 0;
  std::size_t lifetime_calls_ = 0;
  obs::Counter* counter_ =
      &obs::MetricsRegistry::global().counter("oracle.equivalence_calls");
};

/// Exact equivalence via exhaustive sweep — only for small arities; the
/// yardstick tests compare the sampled simulation against.
class ExhaustiveEquivalenceOracle final : public EquivalenceOracle {
 public:
  explicit ExhaustiveEquivalenceOracle(const BooleanFunction& target);
  /// The oracle only references the target; a temporary would dangle.
  explicit ExhaustiveEquivalenceOracle(BooleanFunction&&) = delete;

  std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) override;

 private:
  const BooleanFunction* target_;
};

/// Angluin's EQ-from-random-examples simulation: the i-th call draws
/// ceil((ln(1/delta) + (i+1) ln 2) / eps) uniform samples; if all agree the
/// hypothesis is declared equivalent. Guarantees: with probability >= 1-delta
/// every accepted hypothesis is eps-accurate (union bound over calls).
class SampledEquivalenceOracle final : public EquivalenceOracle {
 public:
  SampledEquivalenceOracle(const BooleanFunction& target, double eps,
                           double delta, support::Rng& rng);
  /// The oracle only references the target; a temporary would dangle.
  SampledEquivalenceOracle(BooleanFunction&&, double, double,
                           support::Rng&) = delete;

  std::optional<BitVec> counterexample(
      const BooleanFunction& hypothesis) override;

  std::size_t samples_used() const { return samples_used_; }

 private:
  const BooleanFunction* target_;
  double eps_;
  double delta_;
  support::Rng* rng_;
  std::size_t samples_used_ = 0;
};

}  // namespace pitfalls::ml
