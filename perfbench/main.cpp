// perfbench_workloads — runs one benchmark workload in this process and prints
// its measurements as one JSON line on stdout.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR
//
// PITFALLS_THREADS sizes the worker pool, as for every program in the tree.
// perfbench/run.py is the entry point users call; it builds this binary,
// runs it once per pass and turns its output into the benchmark result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

double trimmed_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t drop = samples.size() / 10;
  double sum = 0.0;
  for (std::size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

namespace {

std::uint64_t status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0)
      return std::strtoull(line.c_str() + length, nullptr, 10);
  }
  return 0;
}

}  // namespace

std::string Fnv::hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(state));
  return text;
}

std::uint64_t peak_rss_kb() { return status_kb("VmHWM:"); }
std::uint64_t current_rss_kb() { return status_kb("VmRSS:"); }

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> values;
  for (const auto& [name, value] :
       pitfalls::obs::MetricsRegistry::global().counter_values())
    values[name] = value;
  return values;
}

std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& before,
                            const std::map<std::string, std::uint64_t>& after,
                            const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  const std::uint64_t from = b == before.end() ? 0 : b->second;
  const std::uint64_t to = a == after.end() ? 0 : a->second;
  return to >= from ? to - from : 0;
}

void SpanTotals::drain() {
  auto& tracer = pitfalls::obs::Tracer::global();
  dropped += tracer.dropped_events();
  const std::vector<pitfalls::obs::TraceEvent> events = tracer.events();
  std::vector<double> child_seconds(events.size(), 0.0);
  for (const auto& event : events) {
    if (event.kind != pitfalls::obs::TraceEventKind::kSpan) continue;
    if (event.parent >= 0)
      child_seconds[static_cast<std::size_t>(event.parent)] +=
          event.duration_seconds;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    if (event.kind != pitfalls::obs::TraceEventKind::kSpan) continue;
    Entry& entry = by_name[event.name];
    entry.total_seconds += event.duration_seconds;
    entry.self_seconds += event.duration_seconds - child_seconds[i];
    ++entry.count;
  }
  tracer.clear();
}

double SpanTotals::self_ms_per_span(const std::string& name) const {
  const auto it = by_name.find(name);
  if (it == by_name.end() || it->second.count == 0) return 0.0;
  return 1e3 * it->second.self_seconds /
         static_cast<double>(it->second.count);
}

double SpanTotals::total_seconds(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_seconds;
}

}  // namespace perfbench

namespace {

/// Some virtual machines run the first second or so of load after an idle
/// spell several times slower (measured: about 1.1 s at a quarter speed).
/// Spinning every pool thread first keeps that out of set-up and timing.
constexpr double kWarmUpSeconds = 1.5;

void warm_up(std::size_t threads) {
  std::vector<std::thread> spinners;
  for (std::size_t t = 0; t < threads; ++t)
    spinners.emplace_back([] {
      const auto end = perfbench::Clock::now() +
                       std::chrono::duration<double>(kWarmUpSeconds);
      volatile std::uint64_t state = 1;
      while (perfbench::Clock::now() < end)
        for (int i = 0; i < 4096; ++i)
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    });
  for (std::thread& spinner : spinners) spinner.join();
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_workloads --workload NAME --seed N --seconds S"
               " --trace 0|1 --workdir DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      usage();
    }
  }
  if (options.workload.empty() || options.workdir.empty() ||
      !(options.seconds > 0.0))
    usage();
  options.threads = pitfalls::support::pool_thread_count();
  warm_up(options.threads);

  Report report;
  try {
    if (options.workload == "serve-attack") {
      report = run_serve_attack(options);
    } else if (options.workload == "serve-journaled") {
      report = run_serve_journaled(options);
    } else if (options.workload == "sat-lock") {
      report = run_sat_lock(options);
    } else {
      std::cerr << "perfbench_workloads: unknown workload " << options.workload
                << "\n";
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_workloads: " << error.what() << "\n";
    return 1;
  }
  report.metrics["peak_rss_mb"] =
      static_cast<double>(peak_rss_kb()) / 1024.0;

  for (const std::string& failure : report.check_failures)
    std::cerr << "perfbench_workloads: check failed: " << failure << "\n";

  pitfalls::obs::JsonWriter writer;
  writer.begin_object();
  writer.key("workload").value(options.workload);
  writer.key("threads").value(std::uint64_t{options.threads});
  writer.key("correct").value(report.check_failures.empty());
  writer.key("attempted").value(report.attempted);
  writer.key("failed").value(report.failed);
  writer.key("digest").value(report.stream_digest);
  writer.key("metrics").begin_object();
  for (const auto& [name, value] : report.metrics)
    writer.key(name).value(value);
  writer.end_object();
  writer.end_object();
  std::cout << writer.str() << std::endl;
  return 0;
}
