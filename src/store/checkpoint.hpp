// Crash-safe experiment store: checkpoint/resume sessions over snapshot
// files (DESIGN.md §14).
//
// Resume model — replay, not state surgery. A checkpoint persists the one
// thing a crashed run cannot recompute: the oracle interaction log (oracle
// queries are the scarce resource the paper's budgets meter; CPU is not).
// On resume the deterministic computation re-runs from the start of its
// unit of work, and recorded oracle answers are served from the log without
// touching the physical oracle. Because every learner/attack is a pure
// function of (seed, oracle answer sequence) — the DESIGN.md §6 determinism
// contract — the continued run is byte-identical to an uninterrupted one at
// any PITFALLS_THREADS, and replayed queries charge no budget (the fault
// channel's position is restored, not re-walked).
//
// Failure handling, in order of preference:
//   * missing snapshot         -> clean start (first run; not an error)
//   * corrupt snapshot, or one -> clean start + store.snapshot.corrupt
//     of another format version
//   * seed/provenance mismatch -> clean start + store.snapshot.mismatch
//   * log disagrees with the   -> ReplayDivergenceError +
//     re-run mid-replay           store.snapshot.divergence; the caller
//                                 drops the unit's sections and runs clean
// Corruption can cost the saved progress, never correctness.
//
// Persistence is log-structured (support/snapshot format version 2): a
// session tracks which sections changed since its last write and appends
// only that delta, as one CRC-framed commit, so journaling one more job or
// one more cadence of oracle events costs those bytes, not the whole
// history. A write is atomic across sections: a torn tail (crash
// mid-append, bad CRC) is cut back to the last intact commit on open and
// booked as store.snapshot.corrupt, so a journal and the state recorded
// beside it never come apart. A fresh, mismatched, not resumed or
// unreadable file (any other format version, the retired version-1 image
// included) is replaced by a full image through write_file_atomic on the
// first write; dead bytes (superseded sets, removed sections) are compacted
// away the same way once they outweigh the live ones.
#pragma once

#include <algorithm>
#include <csignal>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/robust/faults.hpp"
#include "store/serialize.hpp"
#include "support/require.hpp"
#include "support/snapshot/snapshot.hpp"

namespace pitfalls::obs {
class BenchReporter;
}

namespace pitfalls::store {

/// A replayed oracle log stopped matching the live computation (different
/// challenge at the same position): the snapshot belongs to a different
/// configuration or code revision. The unit of work must restart clean.
class ReplayDivergenceError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One checkpoint file bound to one run identity (seed + provenance).
/// Construction loads and validates any existing log; sections
/// carry over, so the file always describes the full state after a write.
/// All loads/writes/corruption events land in the store.snapshot.* metrics.
///
/// Change tracking: section(), reset_section() and remove_section() mark a
/// section changed until the next write() (SnapshotWriter change tracking).
/// A SectionWriter reference must therefore be re-fetched after a write()
/// or flush() before appending to it again.
class CheckpointSession {
 public:
  /// `resume` false ignores any existing file (fresh run, e.g. --checkpoint
  /// without --resume); true loads it when present, valid, and matching
  /// seed+provenance.
  CheckpointSession(std::string path, std::uint64_t seed,
                    std::string provenance, bool resume);

  /// True when a prior snapshot was loaded and its sections are available.
  bool resumed() const { return resumed_; }

  const std::string& path() const { return path_; }
  std::uint64_t seed() const { return writer_.seed(); }

  support::snapshot::SectionWriter& section(const std::string& name) {
    return writer_.section(name);
  }
  support::snapshot::SectionWriter& reset_section(const std::string& name) {
    return writer_.reset_section(name);
  }
  void remove_section(const std::string& name) {
    writer_.remove_section(name);
  }
  bool has_section(const std::string& name) const {
    return writer_.has_section(name);
  }

  /// Cursor over a section's current bytes. The view is invalidated by any
  /// mutation of that section — decode immediately.
  support::snapshot::SectionReader reader(const std::string& name) const;

  /// Hand every change since the last write to the kernel as one appended
  /// log commit, without syncing: a process crash (kill -9) after return loses
  /// nothing, a power loss may lose what was written since the last flush().
  void write();

  /// write() + fdatasync: a durable commit (store.snapshot.writes). Free
  /// when nothing changed since the last flush.
  void flush();

 private:
  /// Replace the file with the compacted image (fsync'd, atomic).
  void write_image();

  std::string path_;
  support::snapshot::SnapshotWriter writer_;
  support::snapshot::AppendFile file_;
  std::size_t header_size_ = 0;  // log header bytes
  std::uint64_t file_size_ = 0;  // log bytes on disk (the intact prefix)
  bool image_pending_ = true;    // next write replaces the whole file
  bool unsynced_ = false;        // appended since the last fdatasync
  bool uncommitted_ = false;     // written since the last flush
  bool resumed_ = false;
};

/// Book one replay-served query into store.snapshot.replayed_queries
/// (shared by RecordingOracle and the attack-side observation journals).
void note_replayed_query();

/// Book a divergence into store.snapshot.divergence and throw
/// ReplayDivergenceError with `context` in the message.
[[noreturn]] void throw_divergence(const std::string& context);

/// Cooperative SIGTERM/deadline flush: install_termination_handler() makes
/// SIGTERM set a flag instead of killing the process; checkpointed loops
/// poll termination_requested(), flush, and exit at the next safe point.
/// request_termination() sets the flag directly (deadline expiry, tests).
void install_termination_handler();
void request_termination();

/// Deterministic crash hook for the kill/resume gates: benches call this
/// once per completed checkpointable cell. When the PITFALLS_EXIT_AFTER_CELLS
/// environment variable is a positive integer N and `session` is active,
/// the N-th completed cell requests termination exactly as SIGTERM would —
/// the bench flushes and exits 143 at its next poll, landing the "crash"
/// between cells without SIGKILL timing races. No-op without the variable
/// or without a session.
void note_cell_completed(const CheckpointSession* session);
void clear_termination();
bool termination_requested();

/// Sequential record/replay log over one session section — the one journal
/// behind RecordingOracle and AttackObservationJournal. `Codec` is the
/// record format: `Record`, `static Record get(SectionReader&)`,
/// `static void put(SectionWriter&, ...)` over the parts record() is given
/// (and over a whole Record, for drop_restored_if), `static const BitVec&
/// input(const Record&)` (the live query a recorded record must match) and
/// `kNoun` (divergence messages).
///
/// Construction decodes any journaled records into the replay queue.
/// replay() serves them in order, booked as store.snapshot.replayed_queries,
/// and raises ReplayDivergenceError when a recorded input stops matching the
/// live one. record() appends and reports when the owner should flush:
/// every `flush_every` records, and at once while termination is pending.
template <typename Codec>
class Journal {
 public:
  using Record = typename Codec::Record;

  Journal(CheckpointSession& session, std::string section,
          std::size_t flush_every)
      : session_(&session),
        section_(std::move(section)),
        flush_every_(flush_every) {
    PITFALLS_REQUIRE(flush_every_ > 0, "flush cadence must be > 0");
    if (!session_->has_section(section_)) return;
    support::snapshot::SectionReader r = session_->reader(section_);
    while (!r.at_end()) replay_.push_back(Codec::get(r));
  }

  /// Drop the restored records matching `pred` from the replay queue, and
  /// rewrite the section without them when any was dropped (a rewrite is a
  /// full `set` change, so only then).
  template <typename Pred>
  void drop_restored_if(Pred pred) {
    const auto kept = std::remove_if(replay_.begin(), replay_.end(), pred);
    if (kept == replay_.end()) return;
    replay_.erase(kept, replay_.end());
    support::snapshot::SectionWriter& w = session_->reset_section(section_);
    for (const Record& record : replay_) Codec::put(w, record);
  }

  /// The next restored record, after checking it was recorded for `x`;
  /// nullptr once the replay queue is exhausted.
  const Record* replay(const support::BitVec& x) {
    if (cursor_ >= replay_.size()) return nullptr;
    const Record& record = replay_[cursor_];
    if (Codec::input(record) != x) {
      throw_divergence("section '" + section_ + "', " + Codec::kNoun + " " +
                       std::to_string(cursor_));
    }
    ++cursor_;
    note_replayed_query();
    return &record;
  }

  /// Append one record; true when the owner should flush the session now.
  template <typename... Parts>
  bool record(const Parts&... parts) {
    Codec::put(session_->section(section_), parts...);
    ++recorded_;
    return recorded_ % flush_every_ == 0 || termination_requested();
  }

  /// Records until the next flush (1 while termination is pending).
  std::size_t until_flush() const {
    return termination_requested() ? 1
                                   : flush_every_ - recorded_ % flush_every_;
  }

  /// Still serving restored records?
  bool replaying() const { return cursor_ < replay_.size(); }
  /// Records served from the restored journal so far.
  std::size_t replayed() const { return cursor_; }
  /// Records appended by this process (after any replay).
  std::size_t recorded() const { return recorded_; }
  CheckpointSession& session() const { return *session_; }

 private:
  CheckpointSession* session_;
  std::string section_;
  std::size_t flush_every_;
  std::vector<Record> replay_;
  std::size_t cursor_ = 0;
  std::size_t recorded_ = 0;
};

/// MembershipOracle decorator that journals every interaction into a
/// session section and serves a restored journal back on resume.
///
/// Record mode: forwards to the inner oracle in sub-batches that end at each
/// Journal flush point, appends one self-delimiting event per element
/// (answered / transient drop / budget refusal), and flushes after the
/// sub-batch that reached the cadence, so each flush writes the channel
/// state of the journal's last event. Replay mode (journal restored): serves
/// events without touching the inner oracle. When the journal runs dry, even
/// mid-batch, the recorded fault-channel position ("<section>.oracle") is
/// restored into `fault_channel` (if given) and recording continues.
class RecordingOracle final : public ml::MembershipOracle {
 public:
  /// `drop_recorded_refusals` is the budget-refill continuation switch
  /// (DESIGN.md §16): a recorded budget refusal is a *non*-interaction — the
  /// token never answered — so when a lockdown session resumes with a larger
  /// CRP budget, replaying the refusal would re-trip the old lockdown even
  /// though the refilled channel could now answer. With the flag set, any
  /// recorded refusal events are stripped from the replay queue (and from
  /// the persisted journal, which is rewritten without them) so the same
  /// query is forwarded live against the refilled budget instead. Replayed
  /// answered/dropped events still charge nothing, exactly as before.
  RecordingOracle(ml::MembershipOracle& inner, CheckpointSession& session,
                  std::string section,
                  ml::robust::FaultyMembershipOracle* fault_channel = nullptr,
                  std::size_t flush_every = 256,
                  bool drop_recorded_refusals = false);

  std::size_t num_vars() const override { return inner_->num_vars(); }

  /// Still serving restored events?
  bool replaying() const { return journal_.replaying(); }
  /// Events served from the restored journal so far.
  std::size_t replayed_queries() const { return journal_.replayed(); }
  /// Events appended by this process (after any replay).
  std::size_t recorded_events() const { return journal_.recorded(); }

  /// Persist the session now (also called automatically per cadence).
  void flush_now();

 private:
  std::size_t answer(std::span<const BitVec> xs, std::span<int> out,
                     std::span<ml::QueryStatus> status) override;

  /// Event codec: kind u8 (the QueryStatus value), challenge, and for an
  /// answered event a flipped u8 (1 means response -1).
  struct EventCodec {
    struct Record {
      ml::QueryStatus kind;
      BitVec challenge;
      std::uint8_t flipped;
    };
    static constexpr const char* kNoun = "event";
    static Record get(support::snapshot::SectionReader& r);
    static void put(support::snapshot::SectionWriter& w, ml::QueryStatus kind,
                    const BitVec& x, std::uint8_t flipped);
    static void put(support::snapshot::SectionWriter& w, const Record& e) {
      put(w, e.kind, e.challenge, e.flipped);
    }
    static const BitVec& input(const Record& e) { return e.challenge; }
  };

  void finish_replay();

  ml::MembershipOracle* inner_;
  std::string state_section_;
  Journal<EventCodec> journal_;
  ml::robust::FaultyMembershipOracle* fault_channel_;
  bool have_restored_state_ = false;
  ml::robust::FaultyMembershipOracle::State restored_state_;
};

/// Cell-level resume for bench sweeps: if `session` already holds a decoded
/// outcome for `name`, return it without running; otherwise run, store the
/// encoded outcome, drop the cell's journal sections, and flush. A
/// ReplayDivergenceError from `run` (stale journal) drops the journal and
/// runs the cell clean — graceful degradation, never silent divergence.
///
/// Conventions: the outcome lives in "<name>.outcome"; `run`'s
/// RecordingOracle should journal into "<name>.log" (its fault-channel
/// state rides in "<name>.log.oracle").
template <typename T, typename RunFn, typename PutFn, typename GetFn>
T checkpointed_unit(CheckpointSession* session, const std::string& name,
                    RunFn&& run, PutFn&& put, GetFn&& get) {
  const std::string outcome_section = name + ".outcome";
  const std::string log_section = name + ".log";
  if (session != nullptr && session->has_section(outcome_section)) {
    support::snapshot::SectionReader r = session->reader(outcome_section);
    return get(r);
  }
  T result = [&]() -> T {
    if (session == nullptr) return run();
    try {
      return run();
    } catch (const ReplayDivergenceError&) {
      session->remove_section(log_section);
      session->remove_section(log_section + ".oracle");
      return run();
    }
  }();
  if (session != nullptr) {
    support::snapshot::SectionWriter& w =
        session->reset_section(outcome_section);
    put(w, result);
    session->remove_section(log_section);
    session->remove_section(log_section + ".oracle");
    session->flush();
  }
  return result;
}

/// Bench-side session for --checkpoint/--resume (nullptr without them):
/// installs the SIGTERM handler and binds the run identity `seed` +
/// "<bench>.v1.smoke=<0|1>". An unusable checkpoint path prints why and
/// exits 1.
std::unique_ptr<CheckpointSession> open_bench_session(
    const obs::BenchReporter& reporter, std::uint64_t seed);

/// Bench-side end of one checkpointable cell whose outcome is flushed:
/// note_cell_completed(), then exit 143 when termination was requested
/// (SIGTERM or the PITFALLS_EXIT_AFTER_CELLS hook) so --resume continues.
void end_bench_cell(const CheckpointSession* session,
                    const obs::BenchReporter& reporter);

}  // namespace pitfalls::store
