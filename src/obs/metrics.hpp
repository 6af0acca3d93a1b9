// Process-wide metrics for the experiment pipeline: named counters, gauges
// and wall-clock histograms, snapshot-serializable to JSON.
//
// Design notes:
//   * counter/gauge/histogram lookup takes a registry lock; the returned
//     reference is stable for the registry's lifetime, so hot paths resolve
//     a metric once and then increment lock-free (Counter is a relaxed
//     atomic). Oracles cache their Counter* at construction for this reason.
//   * Histograms store raw samples (experiment scale: thousands of
//     observations, not millions) and summarize with nearest-rank
//     percentiles, so p50/p95 are actual observed values.
//   * Snapshots iterate std::map, i.e. name-sorted — byte-identical JSON for
//     identical metric values regardless of registration order.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pitfalls::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSummary {
  std::size_t count = 0;
  double total = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double p50 = 0.0;   // nearest-rank: sorted[ceil(q*count) - 1]
  double p95 = 0.0;
  double max = 0.0;
};

class Histogram {
 public:
  void observe(double sample);
  std::size_t count() const;
  HistogramSummary summary() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every counter/gauge and clear every histogram, keeping the
  /// registrations (and thus any cached references) alive.
  void reset_values();

  /// {"counters":{...},"gauges":{...},"histograms":{...}}, names sorted.
  void write_json(JsonWriter& writer) const;

  /// write_json into a standalone document.
  std::string snapshot_json() const;

  /// Counters-only snapshot ({name: value}, names sorted). Counters carry
  /// the deterministic slice of the registry (query/solver/lock tallies);
  /// gauges and histograms hold run-dependent values (pool size,
  /// wall-clock timings), so cross-thread-count comparisons use this view.
  std::string counters_json() const;

  /// Name-sorted (name, value) pairs of every registered counter — the
  /// enumeration behind counters_json and the streaming delta reporter
  /// (stream_sink.hpp), which needs values without a JSON round trip.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;

  /// The process-wide registry the library instruments by default.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Book one batched query-plane call at a named callsite: observes
/// `elements` into the global "<callsite>.batch_size" histogram. Callsites
/// use the same dotted names as their *.parallel_seconds timings (e.g.
/// "puf.crp.collect"), so batch-size distributions line up with the chunk
/// timings per hot path. The oracle-level oracle.batch.* aggregates are
/// booked separately by MembershipOracle::query_pm_batch.
void observe_batch(const char* callsite, std::size_t elements);

}  // namespace pitfalls::obs
