// The sat-lock workload: a seeded, stratified set of XOR-locked circuits,
// each attacked with a 4-worker solver portfolio through a benchmark-wrapped
// CircuitOracle, every recovered key verified with keys_equivalent, then
// every attack resumed from its DIP journal.
//
// Instance cost varies several-fold across seeds for one cell, so each run
// attacks every cell of kCells the same number of times and reports medians
// (see cell_median_rate). Groups (one instance per cell) are generated,
// attacked, resumed and dropped one at a time, so the run holds one group's
// circuits and the resume timings spread over the whole run. Cells known to
// be pathological (16-input, 250-gate random circuits at 128-bit keys take
// about a minute) are left out.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "common.hpp"
#include "lock/combinational.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace pitfalls;

enum class Family { kAdder, kComparator, kRandom };

struct Cell {
  Family family;
  std::size_t width;    // adder/comparator operand bits, or random inputs
  std::size_t gates;    // random circuits only
  std::size_t outputs;  // random circuits only
  std::size_t key_bits;
};

// Mean attack time per instance on a 4-core Xeon: 0.25, 0.09, 0.09, 0.11 and
// 0.10 s; the random cells vary most across seeds (coefficient of variation
// about 0.4). 12-input random circuits at 32-bit keys are left out: their
// cost is heavy-tailed (0.05 to 2.2 s).
constexpr Cell kCells[] = {
    {Family::kAdder, 64, 0, 0, 128},    {Family::kAdder, 32, 0, 0, 64},
    {Family::kComparator, 64, 0, 0, 64}, {Family::kRandom, 14, 160, 5, 32},
    {Family::kRandom, 15, 180, 5, 32},
};
constexpr std::size_t kCellCount = std::size(kCells);
/// Groups (one instance per cell) at --seconds 10; scaled linearly with
/// --seconds. A group takes 2 to 3 s at PITFALLS_THREADS=1 on a 4-core Xeon
/// VM, attacks and resumed attacks together.
constexpr double kGroupsPer10s = 3.5;
constexpr std::size_t kPortfolioWorkers = 4;
/// Set-up is generating and locking the first kSetupGroups groups, repeated
/// kSetupRepeats times; setup_s is the median. Fixed, so that it does not
/// change with --seconds.
constexpr std::size_t kSetupGroups = 8;
constexpr int kSetupRepeats = 15;

struct Instance {
  circuit::Netlist original;
  lock::LockedCircuit locked;
};

circuit::Netlist generate(const Cell& cell, support::Rng& rng) {
  switch (cell.family) {
    case Family::kAdder:
      return circuit::ripple_carry_adder(cell.width);
    case Family::kComparator:
      return circuit::equality_comparator(cell.width);
    case Family::kRandom: {
      circuit::RandomCircuitConfig config;
      config.inputs = cell.width;
      config.gates = cell.gates;
      config.outputs = cell.outputs;
      return circuit::random_circuit(config, rng);
    }
  }
  return circuit::c17();
}

/// The instances of group `group`; instance i = group * kCellCount + c is a
/// pure function of (seed, i). Adds the time spent locking to lock_seconds.
std::vector<Instance> build_group(std::uint64_t seed, std::size_t group,
                                  double& lock_seconds) {
  std::vector<Instance> instances;
  for (std::size_t c = 0; c < kCellCount; ++c) {
    const Cell& cell = kCells[c];
    support::Rng rng = support::rng_for_chunk(seed, group * kCellCount + c);
    Instance instance{generate(cell, rng), {}};
    const Clock::time_point start = Clock::now();
    instance.locked = lock::lock_random_xor(instance.original, cell.key_bits,
                                            rng);
    lock_seconds += seconds_between(start, Clock::now());
    instances.push_back(std::move(instance));
  }
  return instances;
}

// An instance's cost is heavy-tailed within a cell (a 14-input random
// circuit takes 0.1 s for most keys and 1.8 s for a few), so the figures
// are medians: a rate from each cell's median time, latencies as medians
// over every instance, and the slowest key of each group (one instance per
// cell) as the median over groups. A mean, even a trimmed one, moved with
// the number of slow instances a seed happened to draw.
double cell_median_rate(const std::vector<double>& seconds) {
  double total = 0.0;
  for (std::size_t c = 0; c < kCellCount; ++c) {
    std::vector<double> cell;
    for (std::size_t i = c; i < seconds.size(); i += kCellCount)
      cell.push_back(seconds[i]);
    total += median(std::move(cell));
  }
  return static_cast<double>(kCellCount) / total;
}

/// The slowest instance of each group (one instance per cell).
std::vector<double> group_slowest(const std::vector<double>& seconds) {
  std::vector<double> values;
  for (std::size_t begin = 0; begin + kCellCount <= seconds.size();
       begin += kCellCount) {
    const auto first = seconds.begin() + static_cast<std::ptrdiff_t>(begin);
    values.push_back(*std::max_element(
        first, first + static_cast<std::ptrdiff_t>(kCellCount)));
  }
  return values;
}

/// In-memory DIP journal at the attack's ObservationLog seam: the timed
/// attack records its oracle traffic into it, and the restart pass resumes
/// the attack from it without touching the oracle.
class MemoryLog final : public attack::ObservationLog {
 public:
  std::optional<support::BitVec> serve(const support::BitVec& x) override {
    if (cursor_ == recorded_) return std::nullopt;
    if (!(inputs_[cursor_] == x))
      throw std::runtime_error("resumed attack diverged from its DIP journal");
    return outputs_[cursor_++];
  }
  void record(const support::BitVec& x, const support::BitVec& y) override {
    inputs_.push_back(x);
    outputs_.push_back(y);
  }
  std::size_t replayed() const override { return cursor_; }
  std::size_t size() const { return inputs_.size(); }

  /// A copy that serves everything recorded so far from the start.
  MemoryLog replay() const {
    MemoryLog copy = *this;
    copy.recorded_ = inputs_.size();
    copy.cursor_ = 0;
    return copy;
  }

 private:
  std::vector<support::BitVec> inputs_, outputs_;
  std::size_t recorded_ = 0;  // entries serve() may answer from
  std::size_t cursor_ = 0;
};

}  // namespace

Report run_sat_lock(const Options& options) {
  Report report;
  const auto groups = static_cast<std::size_t>(std::max(
      2.0, std::round(kGroupsPer10s * options.seconds / 10.0)));

  std::vector<double> setup_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    double ignored = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t group = 0; group < kSetupGroups; ++group)
      build_group(options.seed, group, ignored);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  attack::SatAttackConfig config;
  config.portfolio_workers = kPortfolioWorkers;

  auto& tracer = obs::Tracer::global();
  tracer.clear();
  SpanTotals spans;
  // Counter totals over the timed attacks only (resumed attacks run the
  // same solver work again and are left out).
  std::map<std::string, std::uint64_t> totals;
  const char* const kCounters[] = {
      "attack.dips",           "attack.miter_clauses",
      "sat.solver.conflicts",  "sat.solver.propagations",
      "sat.solver.decisions",  "sat.solver.restarts",
      "sat.solver.db_reductions", "sat.solver.portfolio_rounds",
      "circuit.simplify.gates_removed"};
  std::vector<double> attack_s, job_s, resume_s;
  double lock_seconds = 0.0, oracle_s = 0.0, verify_s = 0.0;
  double accuracy_sum = 0.0;
  std::size_t oracle_queries = 0;
  Fnv keys;
  const Clock::time_point began = Clock::now();
  for (std::size_t group = 0; group < groups; ++group) {
    if (group >= 2 && seconds_between(began, Clock::now()) >
                          kOverrunShare * options.seconds)
      break;
    const std::vector<Instance> instances =
        build_group(options.seed, group, lock_seconds);
    std::vector<attack::SatAttackResult> results;
    std::vector<MemoryLog> logs(instances.size());
    const auto before = counter_snapshot();
    for (std::size_t c = 0; c < instances.size(); ++c) {
      const Instance& instance = instances[c];
      const std::string name =
          "instance " + std::to_string(group * kCellCount + c);
      attack::CircuitOracle chip =
          attack::CircuitOracle::from_netlist(instance.original);
      attack::CircuitOracle oracle([&](const support::BitVec& data) {
        const Clock::time_point start = Clock::now();
        support::BitVec response = chip.query(data);
        oracle_s += seconds_between(start, Clock::now());
        return response;
      });
      config.journal = &logs[c];
      const Clock::time_point start = Clock::now();
      attack::SatAttackResult result =
          attack::sat_attack(instance.locked, oracle, config);
      const Clock::time_point attacked = Clock::now();
      const bool exact = result.success &&
                         attack::keys_equivalent(instance.original,
                                                 instance.locked, result.key);
      const Clock::time_point verified = Clock::now();
      attack_s.push_back(seconds_between(start, attacked));
      verify_s += seconds_between(attacked, verified);
      job_s.push_back(seconds_between(start, verified));
      oracle_queries += oracle.queries();
      ++report.attempted;
      if (!exact) {
        ++report.failed;
        report.fail_check(name + ": recovered key is not exact");
      }
      keys.add(result.key.to_string());
      if (options.trace) spans.drain();
      results.push_back(std::move(result));
    }
    const auto after = counter_snapshot();
    for (const char* counter : kCounters)
      totals[counter] += counter_delta(before, after, counter);

    // Restart pass: every attack of the group resumes from its DIP journal.
    // The solver work runs again; the oracle is never queried and the key
    // must come out identical.
    for (std::size_t c = 0; c < instances.size(); ++c) {
      attack::CircuitOracle chip =
          attack::CircuitOracle::from_netlist(instances[c].original);
      MemoryLog replay = logs[c].replay();
      config.journal = &replay;
      const Clock::time_point start = Clock::now();
      const attack::SatAttackResult resumed =
          attack::sat_attack(instances[c].locked, chip, config);
      resume_s.push_back(seconds_between(start, Clock::now()));
      if (!(resumed.key == results[c].key) || chip.queries() != 0 ||
          replay.replayed() != logs[c].size())
        report.fail_check("instance " +
                          std::to_string(group * kCellCount + c) +
                          ": resumed attack differs from the timed one");
    }
    if (options.trace) tracer.clear();

    // Functional accuracy of each recovered key on sampled inputs.
    for (std::size_t c = 0; c < instances.size(); ++c) {
      support::Rng rng = support::rng_for_chunk(
          options.seed ^ 0x61636375ULL, group * kCellCount + c);
      accuracy_sum += lock::key_accuracy(instances[c].original,
                                         instances[c].locked, results[c].key,
                                         256, rng);
    }
  }
  report.stream_digest = keys.hex();

  const auto count = static_cast<double>(attack_s.size());
  auto& m = report.metrics;
  m["setup_s"] = median(setup_s);
  m["jobs_per_s"] = cell_median_rate(job_s);
  m["keys_per_s"] = m["jobs_per_s"];
  m["job_latency_p50_ms"] = 1e3 * median(job_s);
  m["job_latency_p99_ms"] = 1e3 * median(group_slowest(job_s));
  m["latency_samples"] = count;
  m["key_time_p50_ms"] = 1e3 * median(attack_s);
  m["resume_jobs_per_s"] = cell_median_rate(resume_s);
  m["attack_accuracy_mean"] = accuracy_sum / count;
  if (!options.trace) return report;

  m["lock.lock_ms"] = 1e3 * lock_seconds / count;
  m["attack.oracle_us"] =
      oracle_queries == 0
          ? 0.0
          : 1e6 * oracle_s / static_cast<double>(oracle_queries);
  m["attack.verify_ms"] = 1e3 * verify_s / count;
  for (const char* span :
       {"attack.sat_attack.encode_miter", "attack.sat_attack.dip",
        "attack.sat_attack.extract_key"}) {
    const auto it = spans.by_name.find(span);
    m[std::string(span) + "_ms"] =
        it == spans.by_name.end() ? 0.0 : 1e3 * it->second.self_seconds / count;
  }
  for (const char* counter : kCounters)
    m[counter] = static_cast<double>(totals[counter]);
  double attack_total_s = 0.0;
  for (const double seconds : attack_s) attack_total_s += seconds;
  const auto propagations =
      static_cast<double>(totals["sat.solver.propagations"]);
  m["sat.propagations_per_s"] = propagations / attack_total_s;
  const auto dips = static_cast<double>(totals["attack.dips"]);
  m["sat.conflicts_per_dip"] =
      dips > 0.0
          ? static_cast<double>(totals["sat.solver.conflicts"]) / dips
          : 0.0;
  m["obs.trace_dropped_events"] = static_cast<double>(spans.dropped);
  return report;
}
}  // namespace perfbench
