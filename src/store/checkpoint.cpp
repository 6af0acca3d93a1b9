#include "store/checkpoint.hpp"

#include <cstdlib>
#include <iostream>
#include <utility>

#include "obs/bench_reporter.hpp"
#include "obs/metrics.hpp"

namespace pitfalls::store {

namespace {

using support::snapshot::SectionReader;
using support::snapshot::SectionWriter;
using support::snapshot::SnapshotError;
using support::snapshot::SnapshotFault;

// Dead log bytes below this never trigger a compaction: rewriting a small
// file to save a few kilobytes would cost more than it saves.
constexpr std::uint64_t kCompactionFloor = 64 * 1024;

struct StoreMetrics {
  obs::Counter& writes;
  obs::Counter& syncs;
  obs::Counter& compactions;
  obs::Counter& bytes_written;
  obs::Counter& loads;
  obs::Counter& corrupt;
  obs::Counter& mismatch;
  obs::Counter& resumed;
  obs::Counter& replayed_queries;
  obs::Counter& divergence;

  static StoreMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static StoreMetrics metrics{
        registry.counter("store.snapshot.writes"),
        registry.counter("store.snapshot.syncs"),
        registry.counter("store.snapshot.compactions"),
        registry.counter("store.snapshot.bytes_written"),
        registry.counter("store.snapshot.loads"),
        registry.counter("store.snapshot.corrupt"),
        registry.counter("store.snapshot.mismatch"),
        registry.counter("store.snapshot.resumed"),
        registry.counter("store.snapshot.replayed_queries"),
        registry.counter("store.snapshot.divergence")};
    return metrics;
  }
};

volatile std::sig_atomic_t g_termination_requested = 0;

extern "C" void on_termination_signal(int) { g_termination_requested = 1; }

}  // namespace

CheckpointSession::CheckpointSession(std::string path, std::uint64_t seed,
                                     std::string provenance, bool resume)
    : path_(std::move(path)),
      writer_(seed, provenance),
      header_size_(
          support::snapshot::encode_log_header(seed, provenance).size()) {
  // Fail unwritable paths now, with a catchable error, rather than at the
  // first cadence flush deep inside a learner loop.
  support::snapshot::probe_writable(path_);
  if (!resume) return;
  StoreMetrics& metrics = StoreMetrics::get();
  try {
    const std::string bytes = support::snapshot::read_file_bytes(path_);
    const support::snapshot::LogScan scan = support::snapshot::scan_log(bytes);
    if (scan.seed != seed || scan.provenance != provenance) {
      // A snapshot from a different run identity is stale, not corrupt:
      // start clean and leave the file to be replaced by the next write.
      metrics.mismatch.add(1);
      return;
    }
    if (scan.valid_size != bytes.size()) {
      metrics.corrupt.add(1);
      // Cut the torn tail now, so the next append lands right after the
      // last intact commit.
      if (!scan.commits.empty()) file_.open(path_, scan.valid_size);
    }
    if (scan.commits.empty()) return;  // nothing survived: clean start
    for (const support::snapshot::LogCommit& commit : scan.commits)
      for (const support::snapshot::LogChange& change : commit.changes)
        writer_.apply(change);
    writer_.mark_committed();
    file_size_ = scan.valid_size;
    image_pending_ = false;
    resumed_ = true;
    metrics.loads.add(1);
    metrics.resumed.add(1);
  } catch (const SnapshotError& error) {
    // No file yet is the normal first-run case; anything else is detected
    // corruption or a file of another format version (a version-1 image
    // included) — count it and degrade to a clean start.
    if (error.fault() != SnapshotFault::io) metrics.corrupt.add(1);
  }
}

SectionReader CheckpointSession::reader(const std::string& name) const {
  const SectionWriter* section = writer_.find_section(name);
  PITFALLS_REQUIRE(section != nullptr,
                   "checkpoint session has no such section");
  return SectionReader(section->bytes(), name);
}

void CheckpointSession::write_image() {
  file_.close();  // the rename below replaces the file it points at
  const std::string image = writer_.encode_log();
  support::snapshot::write_file_atomic(path_, image);
  writer_.mark_committed();
  file_size_ = image.size();
  image_pending_ = false;
  unsynced_ = false;
  uncommitted_ = true;
  StoreMetrics& metrics = StoreMetrics::get();
  metrics.syncs.add(1);
  metrics.bytes_written.add(image.size());
}

void CheckpointSession::write() {
  if (image_pending_) {
    write_image();
    return;
  }
  std::string delta;
  if (!writer_.encode_commit(delta)) return;
  try {
    if (!file_.is_open()) file_.open(path_, file_size_);
    file_.append(delta);
  } catch (const SnapshotError&) {
    // The file may now end in a partial commit; rewrite it whole next time.
    file_.close();
    image_pending_ = true;
    throw;
  }
  file_size_ += delta.size();
  unsynced_ = true;
  uncommitted_ = true;
  StoreMetrics::get().bytes_written.add(delta.size());
  // Compaction: once superseded and removed bytes outweigh the live ones,
  // rewrite only the live sections. Every rewrite follows at least as many
  // appended bytes as it writes, so the cost stays amortized linear.
  const std::uint64_t live = writer_.committed_bytes();
  const std::uint64_t live_end =
      header_size_ + support::snapshot::kLogCommitFrame + live;
  const std::uint64_t dead = file_size_ > live_end ? file_size_ - live_end : 0;
  if (dead > live && dead > kCompactionFloor) {
    write_image();
    StoreMetrics::get().compactions.add(1);
  }
}

void CheckpointSession::flush() {
  write();
  if (unsynced_) {
    file_.sync();
    StoreMetrics::get().syncs.add(1);
    unsynced_ = false;
  }
  if (!uncommitted_) return;
  uncommitted_ = false;
  StoreMetrics::get().writes.add(1);
}

void note_replayed_query() { StoreMetrics::get().replayed_queries.add(1); }

void throw_divergence(const std::string& context) {
  StoreMetrics::get().divergence.add(1);
  throw ReplayDivergenceError(
      "oracle journal diverged from the live computation (" + context + ")");
}

void install_termination_handler() {
  std::signal(SIGTERM, on_termination_signal);
}

void request_termination() { g_termination_requested = 1; }

void clear_termination() { g_termination_requested = 0; }

bool termination_requested() { return g_termination_requested != 0; }

void note_cell_completed(const CheckpointSession* session) {
  if (session == nullptr) return;
  static const long limit = [] {
    const char* env = std::getenv("PITFALLS_EXIT_AFTER_CELLS");
    return env == nullptr ? 0L : std::strtol(env, nullptr, 10);
  }();
  if (limit <= 0) return;
  static long completed = 0;
  if (++completed >= limit) request_termination();
}

std::unique_ptr<CheckpointSession> open_bench_session(
    const obs::BenchReporter& reporter, std::uint64_t seed) {
  if (!reporter.checkpoint_enabled()) return nullptr;
  install_termination_handler();
  try {
    return std::make_unique<CheckpointSession>(
        reporter.checkpoint_path(), seed,
        reporter.name() + ".v1.smoke=" + (reporter.smoke() ? "1" : "0"),
        reporter.resume());
  } catch (const SnapshotError& error) {
    std::cerr << "bench_" << reporter.name() << ": unusable checkpoint path "
              << reporter.checkpoint_path() << ": " << error.what() << "\n";
    std::exit(1);
  }
}

void end_bench_cell(const CheckpointSession* session,
                    const obs::BenchReporter& reporter) {
  note_cell_completed(session);
  if (session == nullptr || !termination_requested()) return;
  std::cerr << "bench_" << reporter.name()
            << ": termination requested; checkpoint flushed, resume with "
               "--resume\n";
  std::exit(143);
}

RecordingOracle::EventCodec::Record RecordingOracle::EventCodec::get(
    SectionReader& r) {
  Record event;
  const std::uint8_t kind = r.u8();
  PITFALLS_REQUIRE(kind <= 2, "snapshot oracle journal: unknown event kind");
  event.kind = static_cast<ml::QueryStatus>(kind);
  event.challenge = get_bitvec(r);
  event.flipped = event.kind == ml::QueryStatus::answered ? r.u8() : 0;
  return event;
}

void RecordingOracle::EventCodec::put(SectionWriter& w, ml::QueryStatus kind,
                                      const BitVec& x, std::uint8_t flipped) {
  w.u8(static_cast<std::uint8_t>(kind));
  put_bitvec(w, x);
  if (kind == ml::QueryStatus::answered) w.u8(flipped);
}

RecordingOracle::RecordingOracle(
    ml::MembershipOracle& inner, CheckpointSession& session,
    std::string section, ml::robust::FaultyMembershipOracle* fault_channel,
    std::size_t flush_every, bool drop_recorded_refusals)
    : inner_(&inner),
      state_section_(section + ".oracle"),
      journal_(session, std::move(section), flush_every),
      fault_channel_(fault_channel) {
  // Stripped refusals leave the journal and the recorded channel state
  // mutually consistent: refusals are not physical interactions, and the
  // channel's recorded position (raw_queries) never counted them.
  // Continuation events append after the surviving prefix exactly as they
  // would on a fresh run.
  if (drop_recorded_refusals) {
    journal_.drop_restored_if([](const EventCodec::Record& event) {
      return event.kind == ml::QueryStatus::refused;
    });
  }
  if (session.has_section(state_section_)) {
    SectionReader r = session.reader(state_section_);
    restored_state_ = get_fault_state(r);
    have_restored_state_ = true;
  }
  // An empty journal with recorded fault state cannot happen (they flush
  // together), but if the journal is empty there is nothing to replay and
  // the channel is already at its start position.
  if (!journal_.replaying()) finish_replay();
}

void RecordingOracle::finish_replay() {
  if (have_restored_state_ && fault_channel_ != nullptr)
    fault_channel_->restore_state(restored_state_);
  have_restored_state_ = false;
}

void RecordingOracle::flush_now() {
  put_fault_state(journal_.session().reset_section(state_section_),
                  fault_channel_ != nullptr
                      ? fault_channel_->state()
                      : ml::robust::FaultyMembershipOracle::State{});
  journal_.session().flush();
}

std::size_t RecordingOracle::answer(std::span<const BitVec> xs,
                                    std::span<int> out,
                                    std::span<ml::QueryStatus> status) {
  std::size_t done = 0;
  for (; done < xs.size() && journal_.replaying(); ++done) {
    const EventCodec::Record& event = *journal_.replay(xs[done]);
    if (!journal_.replaying()) finish_replay();
    status[done] = event.kind;
    if (event.kind == ml::QueryStatus::refused) return done + 1;
    count_unmirrored();
    out[done] = event.flipped != 0 ? -1 : +1;
  }
  while (done < xs.size()) {
    const std::size_t n = std::min(xs.size() - done, journal_.until_flush());
    const std::size_t got =
        forward(*inner_, xs.subspan(done, n), out.subspan(done, n),
                status.subspan(done, n));
    bool flush = false;
    for (const std::size_t end = done + got; done < end; ++done) {
      if (status[done] != ml::QueryStatus::refused) count_unmirrored();
      const bool minus =
          status[done] == ml::QueryStatus::answered && out[done] < 0;
      flush |= journal_.record(status[done], xs[done], std::uint8_t{minus});
    }
    if (flush) flush_now();
    if (status[done - 1] == ml::QueryStatus::refused) break;
  }
  return done;
}

}  // namespace pitfalls::store
