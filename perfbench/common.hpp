// Shared measurement helpers for the perfbench workload runner.
//
// Every timing here is taken by the benchmark at a public seam (a channel
// callback, a library call it makes itself). Internal splits come only from
// what the program already records: counter deltas of
// obs::MetricsRegistry::global() and span durations drained from
// obs::Tracer::global().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  /// Scratch directory inside the checkout for checkpoint files.
  std::string workdir;
};

/// What one workload run reports back to main.cpp.
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks; any entry here makes the run incorrect.
  std::vector<std::string> check_failures;
  /// Digest of the full deterministic output (serve: the daemon's wire
  /// stream; sat-lock: the recovered keys), compared across thread counts.
  std::string stream_digest;

  void fail_check(const std::string& what) {
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
};

Report run_serve_attack(const Options& options);
Report run_serve_journaled(const Options& options);
Report run_sat_lock(const Options& options);

using Clock = std::chrono::steady_clock;

/// FNV-1a over a sequence of lines: the digest of a deterministic output
/// stream, compared across passes and thread counts.
struct Fnv {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void add(std::string_view line) {
    for (const unsigned char c : line) mix(c);
    mix('\n');
  }
  std::string hex() const;

 private:
  void mix(unsigned char c) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
};

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The work of a run is fixed by --seconds (rounds or groups). On a host
/// running far slower than usual the run stops starting new rounds once this
/// share of --seconds has passed, so it still ends in bounded time.
constexpr double kOverrunShare = 1.1;

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// Mean of `samples` after dropping the lowest and the highest tenth; 0 when
/// empty. Window and group statistics use it: the host's speed shifts
/// between a few levels every second or so, and a median jumps between those
/// levels from run to run where this mean moves with the share of time
/// spent at each; the trim keeps out stalls.
double trimmed_mean(std::vector<double> samples);

/// VmHWM / VmRSS of this process in KiB (0 if /proc is unavailable).
std::uint64_t peak_rss_kb();
std::uint64_t current_rss_kb();

/// Counter values of the global registry, for deltas around a section.
std::map<std::string, std::uint64_t> counter_snapshot();

/// after[name] - before[name] (0 for names never registered).
std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& before,
                            const std::map<std::string, std::uint64_t>& after,
                            const std::string& name);

/// Per-span-name totals drained from the global tracer: summed duration,
/// summed self time (duration minus the time covered by direct children)
/// and occurrence count.
struct SpanTotals {
  struct Entry {
    double total_seconds = 0.0;
    double self_seconds = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Entry> by_name;
  std::uint64_t dropped = 0;

  /// Fold every completed event of the global tracer into the totals and
  /// clear it. Call only while no span is open on any thread.
  void drain();

  /// Mean self time per occurrence, in milliseconds (0 if never seen).
  double self_ms_per_span(const std::string& name) const;
  double total_seconds(const std::string& name) const;
};

}  // namespace perfbench
