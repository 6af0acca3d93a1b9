// The serve workloads: one closed-loop client drives an in-process
// serve::Daemon through BenchChannel, a LineChannel that hands over one wave
// of job lines, then {"type":"run"}, and the next wave only after the
// daemon has written that wave's blocks.
//
// Timings come from the channel seam only: a job's latency runs from the
// moment its line is handed to the daemon until its outcome (or error) line
// is written. Work the client does between waves (generating the next wave,
// checking the last one) is timed separately and excluded from throughput.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "puf/token.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "serve/oracle_policy.hpp"
#include "serve/scheduler.hpp"
#include "serve/token_fleet.hpp"
#include "serve/wire.hpp"
#include "support/bitvec.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace perfbench {
namespace {

using namespace pitfalls;

constexpr std::uint64_t kFleetTokens = 1'000'000;
constexpr std::size_t kChallengesPerQuery = 8;
constexpr std::size_t kAuthRounds = 16;
constexpr std::size_t kAttackBudget = 2000;
constexpr std::size_t kAttackEval = 500;
/// Daemon constructions per round and per restart pass; setup_s is the
/// median.
constexpr int kSetupRepeats = 5;
/// serve-journaled: resumed passes over each round's journal.
constexpr std::size_t kRestartsPerRound = 3;

enum class Kind { kQuery, kAuth, kAttack };
enum class Policy { kClean, kFlip, kDrop, kBurst, kLockdown };

/// One generated job. The daemon only ever sees its rendered line.
struct Job {
  Kind kind = Kind::kQuery;
  std::uint64_t token = 0;
  std::uint64_t seed = 0;
  std::array<std::uint64_t, kChallengesPerQuery> challenges{};
  Policy policy = Policy::kClean;
  bool session = false;
};

enum class Mix { kAttack, kJournaled };

struct Shape {
  Mix mix;
  /// Jobs in the stream one round submits.
  std::size_t jobs;
  /// Jobs per wave (one {"type":"run"}).
  std::size_t wave;
  /// Rounds at --seconds 10; scaled linearly with --seconds. At
  /// PITFALLS_THREADS=2 on a 4-core Xeon VM a round takes about 3 s (attack)
  /// and 3 s (journaled, with its restart passes).
  double rounds_per_10s;
};

constexpr Shape kAttackShape{Mix::kAttack, 500, 50, 2.8};
constexpr Shape kJournaledShape{Mix::kJournaled, 1'200, 50, 3};

// ---------------------------------------------------------------------------
// Workload generators: job i is a pure function of (seed, i).

class Generator {
 public:
  Generator(const Shape& shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {
    // serve-attack draws tokens from a small Zipf-popular hot set so the
    // fleet mostly hits; the others spread uniformly over the population.
    support::Rng rng = support::rng_for_chunk(seed_ ^ 0x686f74ULL, 0);
    for (std::size_t r = 0; r < kHotTokens; ++r) {
      hot_[r] = rng.uniform_below(kFleetTokens);
      zipf_total_ += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_[r] = zipf_total_;
    }
  }

  /// Kinds and policies follow the job index, so every seed gets the same
  /// mix; the seed picks tokens, challenges and job seeds.
  Job job(std::size_t index) const {
    support::Rng rng = support::rng_for_chunk(seed_, index);
    Job job;
    job.seed = rng() & ((1ULL << 53) - 1);  // exact in a JSON number
    switch (shape_.mix) {
      case Mix::kAttack:
        job.kind = Kind::kAttack;
        job.token = hot_token(rng);
        job.policy = static_cast<Policy>(index % 4);
        break;
      case Mix::kJournaled: {
        // 9 query : 9 auth : 2 session attacks, every third attack under a
        // lockdown query budget.
        const std::size_t slot = index % 20;
        job.kind = slot < 9 ? Kind::kQuery : slot < 18 ? Kind::kAuth
                                                       : Kind::kAttack;
        job.token = rng.uniform_below(kFleetTokens);
        if (job.kind == Kind::kAttack) {
          job.session = true;
          const std::size_t attack = (index / 20) * 2 + (slot - 18);
          job.policy = attack % 3 == 0 ? Policy::kLockdown : Policy::kClean;
        }
        break;
      }
    }
    if (job.kind == Kind::kQuery)
      for (auto& word : job.challenges) word = rng();
    return job;
  }

 private:
  static constexpr std::size_t kHotTokens = 64;

  std::uint64_t hot_token(support::Rng& rng) const {
    const double u = rng.uniform01() * zipf_total_;
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(it - zipf_cdf_.begin());
    return hot_[std::min(rank, kHotTokens - 1)];
  }

  Shape shape_;
  std::uint64_t seed_;
  std::array<std::uint64_t, kHotTokens> hot_{};
  std::array<double, kHotTokens> zipf_cdf_{};
  double zipf_total_ = 0.0;
};

std::string challenge_bits(std::uint64_t word) {
  std::string bits(64, '0');
  for (std::size_t i = 0; i < 64; ++i)
    if ((word >> i) & 1U) bits[i] = '1';
  return bits;
}

std::string job_id(std::size_t index) {
  std::string id = "j";
  id += std::to_string(index);
  return id;
}

std::string render(const Job& job, std::size_t index) {
  std::string line = "{\"type\":\"job\",\"id\":\"" + job_id(index) + "\"";
  line += ",\"token\":" + std::to_string(job.token);
  line += ",\"seed\":" + std::to_string(job.seed);
  switch (job.kind) {
    case Kind::kQuery: {
      line += ",\"kind\":\"query\",\"challenges\":[";
      for (std::size_t c = 0; c < kChallengesPerQuery; ++c) {
        if (c != 0) line += ',';
        line += '"' + challenge_bits(job.challenges[c]) + '"';
      }
      line += ']';
      break;
    }
    case Kind::kAuth:
      line += ",\"kind\":\"auth\",\"rounds\":" + std::to_string(kAuthRounds);
      break;
    case Kind::kAttack: {
      line += ",\"kind\":\"attack\",\"budget\":" +
              std::to_string(kAttackBudget) +
              ",\"eval\":" + std::to_string(kAttackEval);
      switch (job.policy) {
        case Policy::kClean:
          break;
        case Policy::kFlip:
          line += ",\"policy\":{\"flip_rate\":0.05}";
          break;
        case Policy::kDrop:
          line += ",\"policy\":{\"drop_rate\":0.05}";
          break;
        case Policy::kBurst:
          line += ",\"policy\":{\"burst_rate\":0.01}";
          break;
        case Policy::kLockdown:
          line += ",\"policy\":{\"query_budget\":" +
                  std::to_string(kAttackBudget / 2) + "}";
          break;
      }
      if (job.session)
        line += ",\"session\":\"s" + std::to_string(index) + "\"";
      break;
    }
  }
  line += '}';
  return line;
}

// ---------------------------------------------------------------------------
// Output checks.

std::string hex32(std::uint32_t value) {
  char text[9];
  std::snprintf(text, sizeof(text), "%08x", value);
  return text;
}

std::string string_field(const obs::JsonValue& object, const char* name) {
  const obs::JsonValue* value = object.find(name);
  return value != nullptr && value->is_string() ? value->string_value : "";
}

double number_field(const obs::JsonValue& object, const char* name) {
  const obs::JsonValue* value = object.find(name);
  return value != nullptr && value->is_number()
             ? value->number_value
             : std::numeric_limits<double>::quiet_NaN();
}

/// Checks one outcome line against the job it answers. Returns the held-out
/// accuracy of a modeled attack, or a negative value for any other outcome.
double check_outcome(const serve::TokenFleetConfig& fleet, const Job& job,
                     std::size_t index, const obs::JsonValue& outcome,
                     Report& report) {
  const std::string id = job_id(index);
  const std::string kind = string_field(outcome, "kind");
  switch (job.kind) {
    case Kind::kQuery: {
      const std::string responses = string_field(outcome, "responses");
      const puf::XorArbiterPuf token =
          puf::materialize_token(fleet.spec, fleet.seed, job.token);
      std::string expected;
      for (const std::uint64_t word : job.challenges)
        expected.push_back(
            token.eval_pm(support::BitVec::from_string(challenge_bits(word))) <
                    0
                ? '-'
                : '+');
      if (kind != "query" || responses != expected)
        report.fail_check(id + ": query responses differ from the token");
      if (string_field(outcome, "digest") !=
          hex32(support::snapshot::crc32(responses)))
        report.fail_check(id + ": query digest does not match responses");
      break;
    }
    case Kind::kAuth: {
      const double rounds = number_field(outcome, "rounds");
      if (kind != "auth" || rounds != static_cast<double>(kAuthRounds) ||
          number_field(outcome, "accepted") != rounds)
        report.fail_check(id + ": auth at sigma 0 must accept every round");
      break;
    }
    case Kind::kAttack: {
      const std::string status = string_field(outcome, "status");
      const double collected = number_field(outcome, "collected");
      const double acc = number_field(outcome, "accuracy");
      const bool lockdown = job.policy == Policy::kLockdown;
      const bool ok =
          kind == "attack" && status == (lockdown ? "lockdown" : "modeled") &&
          (lockdown ? collected == static_cast<double>(kAttackBudget / 2)
                    : collected == static_cast<double>(kAttackBudget)) &&
          acc >= 0.0 && acc <= 1.0;
      if (!ok) report.fail_check(id + ": unexpected attack outcome");
      return status == "modeled" ? acc : -1.0;
    }
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// The channel and one pass over the stream.

/// One wave of the closed loop: from its first job line being handed over
/// to the daemon asking for the next line after {"type":"run"}.
struct Wave {
  std::size_t jobs = 0;
  double cycle_s = 0.0;  // ingest + run + emit
  double run_s = 0.0;    // from {"type":"run"} alone
  std::size_t modeled = 0;
};

struct PassStats {
  double elapsed_s = 0.0;  // daemon wall time, client work excluded
  double client_s = 0.0;
  std::vector<double> latency_s;  // per job; +inf when no outcome arrived
  std::vector<char> is_attack;    // per job
  std::uint64_t acks = 0;
  std::uint64_t drained_jobs = 0;
  bool drained = false;
  double accuracy_sum = 0.0;
  std::uint64_t modeled = 0;
  Fnv stream;    // every line the daemon wrote
  Fnv outcome_digest;  // outcome and error lines only
  double ingest_s = 0.0;
  std::uint64_t ingested = 0;
  std::vector<Wave> waves;
  /// Channel gap between one job's last line and the next line written.
  double block_gap_s = 0.0;
  std::uint64_t rss_mid_kb = 0;
  std::uint64_t rss_end_kb = 0;
  std::size_t mid_jobs = 0;
};

class BenchChannel final : public serve::LineChannel {
 public:
  BenchChannel(const Generator& generator, const serve::TokenFleetConfig& fleet,
               std::size_t jobs, std::size_t wave, bool trace,
               SpanTotals& spans, PassStats& stats, Report& report)
      : generator_(generator),
        fleet_(fleet),
        jobs_(jobs),
        wave_(wave),
        trace_(trace),
        spans_(spans),
        stats_(stats),
        report_(report) {
    stats_.latency_s.assign(jobs_, std::numeric_limits<double>::infinity());
    stats_.is_attack.assign(jobs_, 0);
  }

  bool read_line(std::string& line) override {
    const Clock::time_point entered = Clock::now();
    if (drain_sent_) return false;
    if (last_was_job_) {
      stats_.ingest_s += seconds_between(handed_, entered);
      ++stats_.ingested;
      last_was_job_ = false;
    }
    if (cursor_ < wave_lines_.size()) return hand_job(line);
    if (!wave_lines_.empty() && !run_sent_) {
      run_sent_ = true;
      line = "{\"type\":\"run\"}";
      handed_ = Clock::now();
      return true;
    }
    if (run_sent_) {
      Wave wave;
      wave.jobs = wave_lines_.size();
      wave.cycle_s = seconds_between(handed_at_.front(), entered);
      wave.run_s = seconds_between(handed_, entered);
      stats_.waves.push_back(wave);
    }
    client_work();
    stats_.client_s += seconds_between(entered, Clock::now());
    if (done_) {
      drain_sent_ = true;
      line = "{\"type\":\"drain\"}";
      return true;
    }
    return hand_job(line);
  }

  void write_line(std::string_view line) override {
    const Clock::time_point now = Clock::now();
    stats_.stream.add(line);
    if (gap_open_) {
      stats_.block_gap_s += seconds_between(block_end_, now);
      gap_open_ = false;
    }
    const bool outcome = line.rfind("{\"type\":\"outcome\"", 0) == 0;
    const bool error = line.rfind("{\"type\":\"error\"", 0) == 0;
    if (line.rfind("{\"type\":\"ack\"", 0) == 0) {
      ++stats_.acks;
    } else if (outcome || error) {
      const std::size_t index = id_index(line);
      if (index >= wave_base_ && index < wave_base_ + wave_jobs_.size()) {
        const double latency =
            seconds_between(handed_at_[index - wave_base_], now);
        if (outcome) stats_.latency_s[index] = latency;
        stats_.is_attack[index] =
            wave_jobs_[index - wave_base_].kind == Kind::kAttack;
      }
      pending_.emplace_back(line);
      block_end_ = now;
      gap_open_ = true;
    } else if (line.rfind("{\"type\":\"drained\"", 0) == 0) {
      stats_.drained = true;
      gap_open_ = false;
      pending_.emplace_back(line);
    }
  }

  /// Check the lines of the final wave (the daemon has returned).
  void finish() {
    const Clock::time_point start = Clock::now();
    check_pending();
    stats_.client_s += seconds_between(start, Clock::now());
  }

 private:
  bool hand_job(std::string& line) {
    line = wave_lines_[cursor_];
    last_was_job_ = true;
    handed_ = Clock::now();
    handed_at_[cursor_++] = handed_;
    return true;
  }

  static std::size_t id_index(std::string_view line) {
    const std::size_t at = line.find("\"id\":\"j");
    if (at == std::string_view::npos)
      return std::numeric_limits<std::size_t>::max();
    std::size_t index = 0;
    for (std::size_t i = at + 7; i < line.size() && line[i] >= '0' &&
                                 line[i] <= '9';
         ++i)
      index = index * 10 + static_cast<std::size_t>(line[i] - '0');
    return index;
  }

  /// Between waves: check the finished wave, then build the next one.
  void client_work() {
    check_pending();
    if (trace_) spans_.drain();
    if (stats_.mid_jobs == 0 && next_job_ >= jobs_ / 2) {
      stats_.mid_jobs = next_job_;
      stats_.rss_mid_kb = current_rss_kb();
    }
    wave_lines_.clear();
    wave_jobs_.clear();
    cursor_ = 0;
    run_sent_ = false;
    if (next_job_ >= jobs_) {
      stats_.rss_end_kb = current_rss_kb();
      done_ = true;
      return;
    }
    wave_base_ = next_job_;
    const std::size_t end = std::min(jobs_, next_job_ + wave_);
    for (; next_job_ < end; ++next_job_) {
      wave_jobs_.push_back(generator_.job(next_job_));
      wave_lines_.push_back(render(wave_jobs_.back(), next_job_));
    }
    handed_at_.assign(wave_lines_.size(), Clock::time_point{});
  }

  void check_pending() {
    for (const std::string& line : pending_) {
      obs::JsonValue value;
      try {
        value = obs::JsonValue::parse(line);
      } catch (const std::exception& error) {
        report_.fail_check(std::string("unparseable daemon line: ") +
                           error.what());
        continue;
      }
      const std::string type = string_field(value, "type");
      if (type == "drained") {
        stats_.drained_jobs =
            static_cast<std::uint64_t>(number_field(value, "jobs"));
        continue;
      }
      stats_.outcome_digest.add(line);
      const std::size_t index = id_index(line);
      if (type == "error" || index < wave_base_ ||
          index >= wave_base_ + wave_jobs_.size())
        continue;  // counted as failed: the job has no outcome
      const double accuracy = check_outcome(
          fleet_, wave_jobs_[index - wave_base_], index, value, report_);
      if (accuracy >= 0.0) {
        stats_.accuracy_sum += accuracy;
        ++stats_.modeled;
        if (!stats_.waves.empty()) ++stats_.waves.back().modeled;
      }
    }
    pending_.clear();
  }

  const Generator& generator_;
  serve::TokenFleetConfig fleet_;
  std::size_t jobs_;
  std::size_t wave_;
  bool trace_;
  SpanTotals& spans_;
  PassStats& stats_;
  Report& report_;

  std::vector<std::string> wave_lines_;
  std::vector<Job> wave_jobs_;
  std::vector<Clock::time_point> handed_at_;
  std::vector<std::string> pending_;
  std::size_t wave_base_ = 0;
  std::size_t next_job_ = 0;
  std::size_t cursor_ = 0;
  bool run_sent_ = false;
  bool done_ = false;
  bool drain_sent_ = false;
  bool last_was_job_ = false;
  bool gap_open_ = false;
  Clock::time_point handed_;
  Clock::time_point block_end_;
};

/// Construct the daemon kSetupRepeats times (the pool is restarted each
/// time, so its lazy start-up is part of set-up) and keep the last one.
std::unique_ptr<serve::Daemon> set_up(const serve::DaemonConfig& config,
                                      std::size_t threads,
                                      std::vector<double>& setup_s) {
  std::unique_ptr<serve::Daemon> daemon;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    daemon.reset();
    support::set_pool_thread_count(threads);
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<serve::Daemon>(config);
    support::parallel_for_tasks(threads, [](std::size_t) {});
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  return daemon;
}

void run_pass(serve::Daemon& daemon, const Generator& generator,
              const serve::TokenFleetConfig& fleet, std::size_t jobs,
              std::size_t wave, bool trace, SpanTotals& spans,
              PassStats& stats, Report& report) {
  BenchChannel channel(generator, fleet, jobs, wave, trace, spans, stats,
                       report);
  const Clock::time_point start = Clock::now();
  const int status = daemon.serve(channel);
  const Clock::time_point end = Clock::now();
  stats.elapsed_s = seconds_between(start, end) - stats.client_s;
  channel.finish();
  if (trace) spans.drain();
  if (status != 0) report.fail_check("daemon exited with status " +
                                     std::to_string(status));
  if (!stats.drained || stats.drained_jobs != jobs)
    report.fail_check("daemon did not drain every job");
  if (stats.acks != jobs) report.fail_check("daemon did not ack every job");
  report.attempted += jobs;
  std::uint64_t missing = 0;
  for (const double latency : stats.latency_s)
    if (std::isinf(latency)) ++missing;
  report.failed += missing;
}

/// Rates and latency percentiles are taken within windows of this many
/// consecutive waves, then the trimmed mean over every window of every
/// round: a stall of the host slows a few windows, which the trim drops.
constexpr std::size_t kWindowWaves = 4;

struct WindowSamples {
  std::vector<double> rates;          // jobs per second
  std::vector<double> modeled_rates;  // modeled attacks per second
  std::vector<double> p50s, p99s;     // job latency, seconds
  std::vector<double> attack_p50s;    // attack-job latency, seconds
};

void append_windows(const PassStats& stats, std::size_t wave,
                    WindowSamples& out) {
  const std::size_t jobs = stats.latency_s.size();
  for (std::size_t w0 = 0; w0 < stats.waves.size(); w0 += kWindowWaves) {
    const std::size_t w1 = std::min(w0 + kWindowWaves, stats.waves.size());
    double cycle_s = 0.0;
    std::size_t count = 0, modeled = 0;
    for (std::size_t w = w0; w < w1; ++w) {
      cycle_s += stats.waves[w].cycle_s;
      count += stats.waves[w].jobs;
      modeled += stats.waves[w].modeled;
    }
    if (cycle_s > 0.0) {
      out.rates.push_back(static_cast<double>(count) / cycle_s);
      out.modeled_rates.push_back(static_cast<double>(modeled) / cycle_s);
    }
    // A job without an outcome (+inf) counts as having waited for the
    // whole pass.
    std::vector<double> all, attacks;
    for (std::size_t j = w0 * wave; j < std::min(w1 * wave, jobs); ++j) {
      const double latency = std::isinf(stats.latency_s[j])
                                 ? stats.elapsed_s + stats.client_s
                                 : stats.latency_s[j];
      all.push_back(latency);
      if (stats.is_attack[j]) attacks.push_back(latency);
    }
    if (all.empty()) continue;
    out.p50s.push_back(percentile(all, 0.50));
    out.p99s.push_back(percentile(std::move(all), 0.99));
    if (!attacks.empty())
      out.attack_p50s.push_back(percentile(std::move(attacks), 0.50));
  }
}

// ---------------------------------------------------------------------------
// Traced-run extras: serial re-measurements at single seams.

struct SeamTimes {
  double parse_us = 0.0;
  std::map<Kind, double> run_job_us;
  double acquire_hit_us = 0.0;
  double acquire_miss_us = 0.0;
};

SeamTimes measure_seams(const Generator& generator,
                        const serve::TokenFleetConfig& fleet_config,
                        std::size_t jobs, const std::string& workdir) {
  SeamTimes seams;
  // serve.parse_us: JobSpec::parse(JsonValue::parse(line)) alone.
  const std::size_t parse_jobs = std::min<std::size_t>(jobs, 2000);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < parse_jobs; ++i)
    lines.push_back(render(generator.job(i), i));
  {
    std::vector<serve::JobSpec> specs;
    specs.reserve(lines.size());
    const Clock::time_point start = Clock::now();
    for (const std::string& line : lines)
      specs.push_back(serve::JobSpec::parse(obs::JsonValue::parse(line)));
    seams.parse_us = 1e6 * seconds_between(start, Clock::now()) /
                     static_cast<double>(specs.size());
  }

  // serve.run_job_us.<kind>: serial JobScheduler::run_job on this thread.
  {
    serve::TokenFleet fleet(fleet_config);
    serve::OraclePolicy policy(workdir + "/seams.snap", fleet.fingerprint());
    serve::JobScheduler scheduler(fleet, policy);
    std::map<Kind, std::pair<double, std::size_t>> sums;
    const std::map<Kind, std::size_t> limits{
        {Kind::kQuery, 1000}, {Kind::kAuth, 1000}, {Kind::kAttack, 8}};
    for (std::size_t i = 0; i < jobs; ++i) {
      const Job job = generator.job(i);
      auto& [seconds, count] = sums[job.kind];
      if (count >= limits.at(job.kind)) continue;
      const serve::JobSpec spec =
          serve::JobSpec::parse(obs::JsonValue::parse(render(job, i)));
      const Clock::time_point start = Clock::now();
      const serve::JobResult result = scheduler.run_job(spec);
      seconds += seconds_between(start, Clock::now());
      ++count;
      if (!result.ok) throw std::runtime_error("run_job failed: " + spec.id);
    }
    for (const auto& [kind, sum] : sums)
      if (sum.second != 0)
        seams.run_job_us[kind] =
            1e6 * sum.first / static_cast<double>(sum.second);
  }

  // serve.fleet.acquire_{hit,miss}_us: a benchmark-owned fleet replaying the
  // workload's token sequence.
  {
    serve::TokenFleet fleet(fleet_config);
    obs::Counter& materialized =
        obs::MetricsRegistry::global().counter("serve.fleet.materializations");
    double hit_s = 0.0, miss_s = 0.0;
    std::size_t hits = 0, misses = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      const std::uint64_t token = generator.job(i).token;
      const std::uint64_t before = materialized.value();
      const Clock::time_point start = Clock::now();
      const auto model = fleet.acquire(token);
      const double seconds = seconds_between(start, Clock::now());
      if (materialized.value() != before) {
        miss_s += seconds;
        ++misses;
      } else {
        hit_s += seconds;
        ++hits;
      }
    }
    if (hits != 0)
      seams.acquire_hit_us = 1e6 * hit_s / static_cast<double>(hits);
    if (misses != 0)
      seams.acquire_miss_us = 1e6 * miss_s / static_cast<double>(misses);
  }
  obs::Tracer::global().clear();
  return seams;
}

void remove_checkpoint_files(const std::string& workdir) {
  std::error_code ignored;
  for (const auto& entry :
       std::filesystem::directory_iterator(workdir, ignored))
    if (entry.path().extension() == ".snap" ||
        entry.path().extension() == ".tmp")
      std::filesystem::remove(entry.path(), ignored);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

Report run_serve(const Options& options, const Shape& shape) {
  Report report;
  const std::size_t jobs = shape.jobs;
  // At least two rounds: without a checkpoint the restart rate comes from
  // the rounds after the first.
  const auto rounds = static_cast<std::size_t>(
      std::max(2.0, std::round(shape.rounds_per_10s * options.seconds / 10.0)));
  const Generator generator(shape, options.seed);
  const bool journaled = shape.mix == Mix::kJournaled;

  serve::DaemonConfig config;
  config.fleet.tokens = kFleetTokens;
  config.fleet.seed = support::rng_for_chunk(options.seed, 0x666c656574ULL)();
  if (journaled) {
    std::filesystem::create_directories(options.workdir);
    config.checkpoint_path = options.workdir + "/journal.snap";
  }

  // Repetitions of the same stream, each on a freshly constructed daemon
  // (and a fresh journal). Per-layer figures come from round 0.
  obs::Tracer::global().clear();
  SpanTotals spans;
  std::vector<double> setup_s, resume_setup_s;
  WindowSamples windows, restart_windows;
  std::map<std::string, std::uint64_t> before, after_first;
  std::map<std::string, std::uint64_t> before_restart, after_restart;
  serve::DaemonConfig restart = config;
  restart.resume = true;
  PassStats first;
  const Clock::time_point began = Clock::now();
  std::size_t round = 0;
  for (; round < rounds; ++round) {
    if (round >= 2 && seconds_between(began, Clock::now()) >
                          kOverrunShare * options.seconds)
      break;
    if (journaled) remove_checkpoint_files(options.workdir);
    std::unique_ptr<serve::Daemon> daemon =
        set_up(config, options.threads, setup_s);
    SpanTotals later_spans;
    PassStats stats;
    if (round == 0) before = counter_snapshot();
    run_pass(*daemon, generator, config.fleet, jobs, shape.wave,
             options.trace, round == 0 ? spans : later_spans, stats, report);
    if (round == 0) after_first = counter_snapshot();
    daemon.reset();
    append_windows(stats, shape.wave, windows);
    // Without a checkpoint nothing survives a restart, so every round after
    // the first is the stream resubmitted to a restarted daemon.
    if (!journaled && round > 0)
      append_windows(stats, shape.wave, restart_windows);
    if (round == 0) {
      first = std::move(stats);
    } else if (stats.stream.state != first.stream.state) {
      report.fail_check("round " + std::to_string(round) +
                        " output differs from round 0");
    }

    // With a checkpoint, restart passes resume from this round's journal
    // and serve every outcome back -- a fraction of a round, so each round
    // is followed by several.
    for (std::size_t pass = 0; journaled && pass < kRestartsPerRound;
         ++pass) {
      std::unique_ptr<serve::Daemon> resumed;
      for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
        resumed.reset();
        const Clock::time_point start = Clock::now();
        resumed = std::make_unique<serve::Daemon>(restart);
        resume_setup_s.push_back(seconds_between(start, Clock::now()));
      }
      const bool counted = round == 0 && pass == 0;
      if (counted) before_restart = counter_snapshot();
      SpanTotals restart_spans;
      PassStats restart_stats;
      run_pass(*resumed, generator, config.fleet, jobs, shape.wave, false,
               restart_spans, restart_stats, report);
      if (counted) after_restart = counter_snapshot();
      append_windows(restart_stats, shape.wave, restart_windows);
      if (first.outcome_digest.state != restart_stats.outcome_digest.state)
        report.fail_check("resumed outcome lines differ from round 0");
    }
  }
  double setup = median(setup_s);
  double resume_load_ms = 0.0;
  if (journaled) {
    resume_load_ms = 1e3 * median(resume_setup_s);
    setup += median(resume_setup_s);
  }

  report.stream_digest = first.stream.hex();
  auto& m = report.metrics;
  m["setup_s"] = setup;
  m["jobs_per_s"] = trimmed_mean(windows.rates);
  m["job_latency_p50_ms"] = 1e3 * trimmed_mean(windows.p50s);
  m["job_latency_p99_ms"] = 1e3 * trimmed_mean(windows.p99s);
  m["latency_samples"] = static_cast<double>(round * jobs);
  m["resume_jobs_per_s"] = trimmed_mean(restart_windows.rates);
  m["attack_accuracy_mean"] =
      ratio(first.accuracy_sum, static_cast<double>(first.modeled));
  m["keys_per_s"] = trimmed_mean(windows.modeled_rates);
  m["key_time_p50_ms"] = 1e3 * trimmed_mean(windows.attack_p50s);

  if (!options.trace) return report;

  SeamTimes seams =
      measure_seams(generator, config.fleet, jobs, options.workdir);
  auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after_first, name));
  };
  const double threads = static_cast<double>(options.threads);
  m["serve.ingest_us"] =
      1e6 * ratio(first.ingest_s, static_cast<double>(first.ingested));
  m["serve.parse_us"] = seams.parse_us;
  double run_s = 0.0;
  for (const Wave& wave : first.waves) run_s += wave.run_s;
  const auto waves = static_cast<double>(first.waves.size());
  m["serve.wave_ms"] = 1e3 * ratio(run_s, waves);
  m["serve.wave_jobs"] = ratio(static_cast<double>(jobs), waves);
  m["serve.run_job_us.query"] = seams.run_job_us[Kind::kQuery];
  m["serve.run_job_us.auth"] = seams.run_job_us[Kind::kAuth];
  m["serve.run_job_us.attack"] = seams.run_job_us[Kind::kAttack];
  m["serve.pool_efficiency"] =
      ratio(spans.total_seconds("serve.job.run"), run_s * threads);
  m["support.pool.tasks"] = delta("support.pool.tasks");
  m["serve.fleet.acquire_hit_us"] = seams.acquire_hit_us;
  m["serve.fleet.acquire_miss_us"] = seams.acquire_miss_us;
  const double hits = delta("serve.fleet.hits");
  const double materializations = delta("serve.fleet.materializations");
  m["serve.fleet.hit_ratio"] = ratio(hits, hits + materializations);
  m["serve.fleet.materializations"] = materializations;
  m["serve.fleet.evictions"] = delta("serve.fleet.evictions");
  for (const char* span : {"serve.job.collect", "serve.job.eval",
                           "serve.job.query", "serve.job.auth",
                           "serve.job.fit"})
    m[std::string(span) + "_ms"] = spans.self_ms_per_span(span);
  for (const char* counter :
       {"oracle.membership_queries", "robust.faults.iid_flips",
        "robust.faults.drops", "robust.budget.refusals",
        "puf.crp.uniform_collected"})
    m[counter] = delta(counter);
  m["ml.logistic.iterations_per_fit"] =
      ratio(delta("ml.logistic.iterations"), delta("ml.logistic.fits"));
  m["store.journal_us_per_job"] =
      1e6 * first.block_gap_s / static_cast<double>(jobs);
  m["store.journal_wall_share"] = ratio(first.block_gap_s, first.elapsed_s);
  m["store.snapshot.writes"] = delta("store.snapshot.writes");
  m["store.snapshot.bytes_written"] = delta("store.snapshot.bytes_written");
  m["store.bytes_per_job"] =
      delta("store.snapshot.bytes_written") / static_cast<double>(jobs);
  m["store.resume_load_ms"] = resume_load_ms;
  m["store.snapshot.replayed_queries"] = static_cast<double>(counter_delta(
      before_restart, after_restart, "store.snapshot.replayed_queries"));
  m["serve.session.resumed"] = static_cast<double>(
      counter_delta(before_restart, after_restart, "serve.session.resumed"));
  const double late_jobs =
      static_cast<double>(jobs - std::min(jobs, first.mid_jobs));
  m["obs.rss_growth_kb_per_kjob"] =
      late_jobs > 0.0 && first.rss_end_kb > first.rss_mid_kb
          ? static_cast<double>(first.rss_end_kb - first.rss_mid_kb) /
                (late_jobs / 1000.0)
          : 0.0;
  m["obs.trace_dropped_events"] = static_cast<double>(spans.dropped);
  return report;
}

}  // namespace

Report run_serve_attack(const Options& options) {
  return run_serve(options, kAttackShape);
}

Report run_serve_journaled(const Options& options) {
  return run_serve(options, kJournaledShape);
}

}  // namespace perfbench
