#include "obs/bench_reporter.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::obs {

BenchReporter::BenchReporter(std::string name, int argc, char** argv)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  PITFALLS_REQUIRE(!name_.empty(), "bench reporter needs a bench name");
  PITFALLS_REQUIRE(argc == 0 || argv != nullptr,
                   "argv must be non-null when argc > 0");
  const std::string default_path = "BENCH_" + name_ + ".json";
  const std::string default_trace_path = "TRACE_" + name_ + ".json";
  const std::string default_checkpoint_path = "CKPT_" + name_ + ".snap";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg == "--json") {
      // Optional path operand; a following flag means "use the default".
      if (i + 1 < argc && argv[i + 1][0] != '-')
        json_path_ = argv[++i];
      else
        json_path_ = default_path;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path_ = arg.substr(7);
      if (json_path_.empty()) json_path_ = default_path;
    } else if (arg == "--trace") {
      if (i + 1 < argc && argv[i + 1][0] != '-')
        trace_path_ = argv[++i];
      else
        trace_path_ = default_trace_path;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path_ = arg.substr(8);
      if (trace_path_.empty()) trace_path_ = default_trace_path;
    } else if (arg == "--checkpoint" || arg == "--resume") {
      resume_ = resume_ || arg == "--resume";
      // A bare flag keeps a path an earlier --checkpoint=path gave.
      if (i + 1 < argc && argv[i + 1][0] != '-')
        checkpoint_path_ = argv[++i];
      else if (checkpoint_path_.empty())
        checkpoint_path_ = default_checkpoint_path;
    } else if (arg.rfind("--checkpoint=", 0) == 0 ||
               arg.rfind("--resume=", 0) == 0) {
      resume_ = resume_ || arg.rfind("--resume=", 0) == 0;
      checkpoint_path_ = arg.substr(arg.find('=') + 1);
      if (checkpoint_path_.empty()) checkpoint_path_ = default_checkpoint_path;
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      const std::string value(arg.substr(19));
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed == 0) {
        std::cerr << "bench_" << name_
                  << ": --checkpoint-every needs a positive integer, got '"
                  << value << "'\n";
      } else {
        checkpoint_every_ = static_cast<std::size_t>(parsed);
      }
    } else {
      std::cerr << "bench_" << name_ << ": ignoring unknown argument '" << arg
                << "' (known: --json [path], --json=path, --trace [path], "
                   "--trace=path, --checkpoint [path], --resume [path], "
                   "--checkpoint-every=N, --smoke)\n";
    }
  }
}

void BenchReporter::print(std::ostream& os, const support::Table& table,
                          const std::string& title) {
  tables_.push_back({title, table.headers(), table.data()});
  table.print(os, title);
}

void BenchReporter::note(const std::string& name, const std::string& text) {
  notes_.push_back({name, false, text, 0.0});
}

void BenchReporter::note(const std::string& name, double number) {
  notes_.push_back({name, true, {}, number});
}

int BenchReporter::finish() {
  if (!trace_path_.empty() &&
      !export_chrome_trace(trace_path_, Tracer::global(), "bench_" + name_)) {
    std::cerr << "bench_" << name_ << ": cannot write chrome trace '"
              << trace_path_ << "'\n";
    return 1;
  }
  if (json_path_.empty()) return 0;

  // Pre-register the oracle query counters so every bench report exposes the
  // same core key set even when a bench never touches an oracle.
  auto& registry = MetricsRegistry::global();
  registry.counter("oracle.membership_queries");
  registry.counter("oracle.equivalence_calls");

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(std::int64_t{1});
  w.key("bench").value(name_);
  w.key("smoke").value(smoke_);
  w.key("wall_seconds").value(wall_seconds);
  w.key("notes").begin_object();
  for (const Note& n : notes_) {
    w.key(n.name);
    if (n.numeric)
      w.value(n.number);
    else
      w.value(n.text);
  }
  w.end_object();
  w.key("tables").begin_array();
  for (const RecordedTable& t : tables_) {
    w.begin_object();
    w.key("title").value(t.title);
    w.key("headers").begin_array();
    for (const auto& h : t.headers) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  registry.write_json(w);
  w.key("trace");
  Tracer::global().write_json(w);
  w.end_object();

  std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "bench_" << name_ << ": cannot open '" << json_path_
              << "' for writing\n";
    return 1;
  }
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::cerr << "bench_" << name_ << ": failed writing '" << json_path_
              << "'\n";
    return 1;
  }
  return 0;
}

}  // namespace pitfalls::obs
