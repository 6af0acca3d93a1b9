// Tests for the crash-safe experiment store (DESIGN.md §14): checkpoint
// log format integrity (corruption torture sweeps), bit-exact codec round
// trips, checkpoint sessions, oracle journal record/replay, and the
// resume-determinism + budget-accounting contracts the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "ml/features.hpp"
#include "ml/robust/learners.hpp"
#include "obs/metrics.hpp"
#include "puf/arbiter.hpp"
#include "store/checkpoint.hpp"
#include "store/observation_journal.hpp"
#include "store/serialize.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace pitfalls;
using namespace pitfalls::support::snapshot;
using pitfalls::ml::robust::FaultConfig;
using pitfalls::ml::robust::FaultyMembershipOracle;
using pitfalls::ml::robust::LearnOutcome;
using pitfalls::ml::QueryBudgetExhaustedError;
using pitfalls::ml::robust::RobustLearnConfig;
using pitfalls::ml::TransientFaultError;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// Scratch snapshot path removed (with its .tmp) when the test exits.
class TempSnapshot {
 public:
  explicit TempSnapshot(const std::string& name)
      : path_("store_test_" + name + ".snap") {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempSnapshot() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

BitVec make_bitvec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.coin());
  return v;
}

// A small reference log image (one compacted commit).
std::string reference_image() {
  SnapshotWriter w(42, "store_test.ref");
  SectionWriter& a = w.section("alpha");
  a.u32(7);
  a.str("payload");
  SectionWriter& b = w.section("beta");
  for (int i = 0; i < 32; ++i) b.u8(static_cast<std::uint8_t>(i));
  return w.encode_log();
}

// Section names of a compacted image, in the order its one commit sets them.
std::vector<std::string> image_section_names(const std::string& image) {
  const LogScan scan = scan_log(image);
  std::vector<std::string> names;
  for (const LogCommit& commit : scan.commits)
    for (const LogChange& change : commit.changes)
      names.emplace_back(change.name);
  return names;
}

// The fault scan_log throws for `image`; fails the test if it throws none.
SnapshotFault scan_fault(const std::string& image) {
  try {
    scan_log(image);
  } catch (const SnapshotError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "scan_log accepted the image";
  return SnapshotFault::io;
}

// ---------------------------------------------------------------- format

TEST(SnapshotFormat, RoundTripsSeedProvenanceAndSections) {
  SnapshotWriter w(9001, "bench_x.v1.smoke=1");
  SectionWriter& s = w.section("s");
  s.u8(7);
  s.u32(0xDEADBEEFU);
  s.u64(0x0123456789ABCDEFULL);
  s.i64(-17);
  s.f64(-0.0);
  s.str("hello");
  w.section("empty");

  const std::string image = w.encode_log();
  const LogScan scan = scan_log(image);
  EXPECT_EQ(scan.seed, 9001u);
  EXPECT_EQ(scan.provenance, "bench_x.v1.smoke=1");
  EXPECT_EQ(scan.valid_size, image.size());
  ASSERT_EQ(scan.commits.size(), 1u);
  const std::vector<LogChange>& changes = scan.commits[0].changes;
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].name, "s");
  EXPECT_EQ(changes[1].name, "empty");
  for (const LogChange& change : changes) EXPECT_EQ(change.op, LogOp::set);

  SectionReader cur(changes[0].payload, "s");
  EXPECT_EQ(cur.u8(), 7u);
  EXPECT_EQ(cur.u32(), 0xDEADBEEFU);
  EXPECT_EQ(cur.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(cur.i64(), -17);
  const double neg_zero = cur.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(cur.str(), "hello");
  EXPECT_TRUE(cur.at_end());
  EXPECT_TRUE(SectionReader(changes[1].payload, "empty").at_end());
}

TEST(SnapshotFormat, EncodeIsDeterministic) {
  EXPECT_EQ(reference_image(), reference_image());
}

TEST(SnapshotFormat, SectionLifecycle) {
  SnapshotWriter w(1, "p");
  w.section("a").u8(1);
  w.section("a").u8(2);  // get-or-create appends
  EXPECT_EQ(w.section("a").size(), 2u);
  w.reset_section("a").u8(3);  // create-or-clear
  EXPECT_EQ(w.section("a").size(), 1u);
  EXPECT_TRUE(w.has_section("a"));
  w.remove_section("a");
  EXPECT_FALSE(w.has_section("a"));
  w.remove_section("never-existed");  // ignored
}

TEST(SnapshotFormat, RejectsWrongMagic) {
  std::string image = reference_image();
  image[0] = 'X';
  EXPECT_EQ(scan_fault(image), SnapshotFault::bad_magic);
}

TEST(SnapshotFormat, RejectsUnknownVersion) {
  // Version 1 (the retired whole-image format) is as unknown as a future one.
  for (const std::uint32_t version : {0U, 1U, kLogFormatVersion + 1}) {
    std::string image = reference_image();
    image[8] = static_cast<char>(version);
    EXPECT_EQ(scan_fault(image), SnapshotFault::bad_version)
        << "version " << version;
  }
}

TEST(SnapshotFormat, TruncationAtEveryByteOffsetIsDetected) {
  const std::string image = reference_image();
  const std::size_t header = encode_log_header(42, "store_test.ref").size();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::string prefix = image.substr(0, len);
    if (len < header) {
      EXPECT_EQ(scan_fault(prefix), SnapshotFault::truncated)
          << "prefix of " << len << " bytes";
      continue;
    }
    // The header survives; the cut commit is a torn tail, never data.
    const LogScan scan = scan_log(prefix);
    EXPECT_TRUE(scan.commits.empty()) << "prefix of " << len << " bytes";
    EXPECT_EQ(scan.valid_size, header) << "prefix of " << len << " bytes";
  }
  EXPECT_EQ(scan_log(image).commits.size(), 1u);
  // Trailing garbage is a torn tail too, not silently part of the log.
  const std::string garbage = image + "x";
  EXPECT_EQ(scan_log(garbage).valid_size, image.size());
}

TEST(SnapshotFormat, BitFlipAtEveryByteOffsetIsDetected) {
  const std::string image = reference_image();
  const std::size_t header = encode_log_header(42, "store_test.ref").size();
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string mutated = image;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    if (i < header) {
      EXPECT_THROW(scan_log(mutated), SnapshotError)
          << "bit flip at byte " << i << " accepted";
      continue;
    }
    const LogScan scan = scan_log(mutated);
    EXPECT_TRUE(scan.commits.empty()) << "bit flip at byte " << i;
    EXPECT_EQ(scan.valid_size, header) << "bit flip at byte " << i;
  }
}

TEST(SnapshotFormat, SectionReaderNeverReadsPastTheEnd) {
  SectionWriter w;
  w.u32(5);
  SectionReader cur(w.bytes(), "s");
  EXPECT_EQ(cur.u32(), 5u);
  try {
    cur.u8();
    FAIL() << "read past end succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.fault(), SnapshotFault::bad_section);
  }
  // A length-prefixed string whose declared length exceeds the payload.
  SectionWriter w2;
  w2.u32(1000);
  SectionReader cur2(w2.bytes(), "s");
  EXPECT_THROW(cur2.str(), SnapshotError);
}

TEST(SnapshotFormat, AtomicWriteReplacesAndCleansUp) {
  TempSnapshot file("atomic");
  write_file_atomic(file.path(), "first");
  EXPECT_EQ(read_file_bytes(file.path()), "first");
  write_file_atomic(file.path(), "second, longer than the first");
  EXPECT_EQ(read_file_bytes(file.path()), "second, longer than the first");
  // The staging file never survives a completed write.
  EXPECT_THROW(read_file_bytes(file.path() + ".tmp"), SnapshotError);
}

TEST(SnapshotFormat, StrayTmpFromAKilledWriterIsHarmless) {
  TempSnapshot file("straytmp");
  const std::string image = reference_image();
  write_file_atomic(file.path(), image);
  // A writer killed mid-write leaves a torn .tmp; the published path is
  // untouched and the next atomic write simply overwrites the leftovers.
  write_file_atomic(file.path() + ".tm", "partial gar");  // any bytes
  std::rename((file.path() + ".tm").c_str(), (file.path() + ".tmp").c_str());
  EXPECT_EQ(read_file_bytes(file.path()), image);
  EXPECT_EQ(scan_log(read_file_bytes(file.path())).valid_size, image.size());
  write_file_atomic(file.path(), "fresh");
  EXPECT_EQ(read_file_bytes(file.path()), "fresh");
}

// ---------------------------------------------------------------- codecs

TEST(StoreCodecs, BitVecRoundTripsAllSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{13},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{130}}) {
    const BitVec v = make_bitvec(n, 77 + n);
    SectionWriter w;
    store::put_bitvec(w, v);
    SectionReader r(w.bytes(), "t");
    EXPECT_EQ(store::get_bitvec(r), v) << "n=" << n;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(StoreCodecs, DoublesRoundTripBitExactly) {
  const std::vector<double> values = {0.0, -0.0, 1.0, -1.5,
                                      1e-308, 1e308, 0.1};
  SectionWriter w;
  store::put_doubles(w, values);
  SectionReader r(w.bytes(), "t");
  const std::vector<double> back = store::get_doubles(r);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "index " << i;
  }
}

TEST(StoreCodecs, RngRoundTripContinuesTheExactStream) {
  Rng original(123);
  (void)original.gaussian();  // populate the spare-gaussian cache
  (void)original.uniform01();

  SectionWriter w;
  store::put_rng(w, original);
  SectionReader r(w.bytes(), "t");
  Rng restored(999);  // wrong seed, fully overwritten by restore
  store::get_rng(r, restored);

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(original.gaussian()),
              std::bit_cast<std::uint64_t>(restored.gaussian()));
    EXPECT_EQ(original.uniform_below(1000), restored.uniform_below(1000));
  }
}

TEST(StoreCodecs, CrpSetRoundTrips) {
  Rng rng(5);
  const puf::ArbiterPuf target(10, 0.0, rng);
  const puf::CrpSet crps = puf::CrpSet::collect_uniform(target, 50, rng);

  SectionWriter w;
  store::put_crp_set(w, crps);
  SectionReader r(w.bytes(), "t");
  const puf::CrpSet back = store::get_crp_set(r);
  ASSERT_EQ(back.size(), crps.size());
  for (std::size_t i = 0; i < crps.size(); ++i) {
    EXPECT_EQ(back.challenge(i), crps.challenge(i));
    EXPECT_EQ(back.response(i), crps.response(i));
  }
}

TEST(StoreCodecs, HypothesisClassesRoundTrip) {
  const BitVec probe = make_bitvec(6, 3);

  const ml::LinearModel model(6, {0.5, -1.25, 0.0, 2.0, -0.75, 0.25, 1.0},
                              ml::parity_with_bias, "test model");
  SectionWriter wm;
  store::put_linear_model(wm, model);
  SectionReader rm(wm.bytes(), "t");
  const ml::LinearModel model2 =
      store::get_linear_model(rm, ml::parity_with_bias);
  EXPECT_EQ(model2.weights(), model.weights());
  EXPECT_EQ(model2.describe(), model.describe());
  EXPECT_EQ(model2.eval_pm(probe), model.eval_pm(probe));

  const ml::SparseFourierHypothesis fourier(
      6, {make_bitvec(6, 1), make_bitvec(6, 2)}, {0.75, -0.5});
  SectionWriter wf;
  store::put_sparse_fourier(wf, fourier);
  SectionReader rf(wf.bytes(), "t");
  const ml::SparseFourierHypothesis fourier2 = store::get_sparse_fourier(rf);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fourier2.approximation(probe)),
            std::bit_cast<std::uint64_t>(fourier.approximation(probe)));

  const boolfn::Ltf ltf({1.0, -2.5, 0.5, 0.0, 3.0, -1.0}, 0.25);
  SectionWriter wl;
  store::put_ltf(wl, ltf);
  SectionReader rl(wl.bytes(), "t");
  EXPECT_EQ(store::get_ltf(rl).eval_pm(probe), ltf.eval_pm(probe));

  const boolfn::AnfPolynomial anf(
      6, {make_bitvec(6, 4), make_bitvec(6, 5), BitVec(6)});
  SectionWriter wa;
  store::put_anf(wa, anf);
  SectionReader ra(wa.bytes(), "t");
  EXPECT_EQ(store::get_anf(ra).eval_pm(probe), anf.eval_pm(probe));
}

TEST(StoreCodecs, DfaRoundTrips) {
  circuit::Dfa dfa(3, 2, 0);
  dfa.set_transition(0, 1, 1);
  dfa.set_transition(1, 0, 2);
  dfa.set_transition(2, 1, 0);
  dfa.set_accepting(2, true);

  SectionWriter w;
  store::put_dfa(w, dfa);
  SectionReader r(w.bytes(), "t");
  const circuit::Dfa back = store::get_dfa(r);
  EXPECT_EQ(back.num_states(), 3u);
  EXPECT_EQ(back.start(), 0u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(back.accepting(s), dfa.accepting(s));
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_EQ(back.transition(s, c), dfa.transition(s, c));
  }
}

TEST(StoreCodecs, FaultStateAndOutcomeRoundTrip) {
  const FaultyMembershipOracle::State state{17, 3, 5, 2};
  SectionWriter ws;
  store::put_fault_state(ws, state);
  SectionReader rs(ws.bytes(), "t");
  const auto state2 = store::get_fault_state(rs);
  EXPECT_EQ(state2.raw_queries, 17u);
  EXPECT_EQ(state2.burst_remaining, 3u);
  EXPECT_EQ(state2.flips, 5u);
  EXPECT_EQ(state2.drops, 2u);

  LearnOutcome<ml::LinearModel> outcome;
  outcome.status = ml::robust::LearnStatus::budget_exhausted;
  outcome.best_hypothesis.emplace(
      ml::LinearModel(4, {1.0, 2.0, 3.0, 4.0, 5.0},
                      ml::parity_with_bias, "h"));
  outcome.queries_spent = 321;
  outcome.diagnostics["heldout_accuracy"] = 0.9375;
  outcome.diagnostics["train_examples"] = 300.0;

  SectionWriter w;
  store::put_outcome(w, outcome,
                     [](SectionWriter& hw, const ml::LinearModel& m) {
                       store::put_linear_model(hw, m);
                     });
  SectionReader r(w.bytes(), "t");
  const auto back = store::get_outcome<ml::LinearModel>(
      r, [](SectionReader& hr) {
        return store::get_linear_model(hr, ml::parity_with_bias);
      });
  EXPECT_EQ(back.status, outcome.status);
  ASSERT_TRUE(back.best_hypothesis.has_value());
  EXPECT_EQ(back.best_hypothesis->weights(), outcome.best_hypothesis->weights());
  EXPECT_EQ(back.queries_spent, 321u);
  EXPECT_EQ(back.diagnostics, outcome.diagnostics);
}

// ------------------------------------------------------ checkpoint session

TEST(CheckpointSession, FreshStartWhenNoSnapshotExists) {
  TempSnapshot file("fresh");
  store::CheckpointSession session(file.path(), 7, "p", /*resume=*/true);
  EXPECT_FALSE(session.resumed());
}

TEST(CheckpointSession, UnwritablePathFailsAtConstruction) {
  // The probe must reject a doomed path up front (catchable, so benches can
  // print a diagnostic and exit cleanly), not at the first cadence flush.
  try {
    store::CheckpointSession session("/nonexistent-dir/depth/x.snap", 7, "p",
                                     false);
    FAIL() << "expected SnapshotError{io}";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.fault(), SnapshotFault::io);
  }
}

TEST(CheckpointSession, FlushThenResumeRestoresSections) {
  TempSnapshot file("resume");
  const std::uint64_t loads0 = counter_value("store.snapshot.loads");
  const std::uint64_t resumed0 = counter_value("store.snapshot.resumed");
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("cell.0.outcome").str("done");
    session.flush();
  }
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 1);

  store::CheckpointSession session(file.path(), 7, "p", true);
  EXPECT_TRUE(session.resumed());
  ASSERT_TRUE(session.has_section("cell.0.outcome"));
  EXPECT_EQ(session.reader("cell.0.outcome").str(), "done");
  EXPECT_EQ(counter_value("store.snapshot.loads"), loads0 + 1);
  EXPECT_EQ(counter_value("store.snapshot.resumed"), resumed0 + 1);
}

TEST(CheckpointSession, CorruptSnapshotDegradesToCleanStart) {
  TempSnapshot file("corrupt");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  // Flip a payload byte on disk (the section's CRC must catch it).
  std::string bytes = read_file_bytes(file.path());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  write_file_atomic(file.path(), bytes);

  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  store::CheckpointSession session(file.path(), 7, "p", true);
  EXPECT_FALSE(session.resumed());
  EXPECT_FALSE(session.has_section("s"));
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
}

TEST(CheckpointSession, IdentityMismatchStartsCleanWithoutCorruptFlag) {
  TempSnapshot file("mismatch");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  const std::uint64_t mismatch0 = counter_value("store.snapshot.mismatch");
  store::CheckpointSession other_seed(file.path(), 8, "p", true);
  EXPECT_FALSE(other_seed.resumed());
  store::CheckpointSession other_prov(file.path(), 7, "q", true);
  EXPECT_FALSE(other_prov.resumed());
  EXPECT_EQ(counter_value("store.snapshot.mismatch"), mismatch0 + 2);
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0);
}

TEST(CheckpointSession, CheckpointWithoutResumeIgnoresExistingSnapshot) {
  TempSnapshot file("noresume");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  store::CheckpointSession session(file.path(), 7, "p", /*resume=*/false);
  EXPECT_FALSE(session.resumed());
  EXPECT_FALSE(session.has_section("s"));
}

// ------------------------------------------------------- checkpoint log

// Every section a session holds among `names`, with its bytes.
std::map<std::string, std::string> session_state(
    const store::CheckpointSession& session,
    const std::vector<std::string>& names) {
  std::map<std::string, std::string> state;
  for (const std::string& name : names) {
    if (!session.has_section(name)) continue;
    SectionReader r = session.reader(name);
    std::string bytes;
    while (!r.at_end()) bytes.push_back(static_cast<char>(r.u8()));
    state[name] = bytes;
  }
  return state;
}

// The sections after replaying the first `count` commits of `scan`.
std::map<std::string, std::string> replayed_state(const LogScan& scan,
                                                  std::size_t count) {
  SnapshotWriter w(scan.seed, scan.provenance);
  for (std::size_t i = 0; i < count; ++i)
    for (const LogChange& change : scan.commits[i].changes) w.apply(change);
  std::map<std::string, std::string> state;
  for (std::size_t i = 0; i < count; ++i)
    for (const LogChange& change : scan.commits[i].changes)
      if (const SectionWriter* section =
              w.find_section(std::string(change.name)))
        state[std::string(change.name)] = section->bytes();
  return state;
}

const std::vector<std::string> kLogSections = {"alpha", "beta", "gamma",
                                               "after"};

// A multi-commit, multi-section log built through a session: appends to a
// growing section, a replaced state section, a removal and a re-creation,
// several of them per commit.
std::string reference_log(const std::string& path) {
  store::CheckpointSession session(path, 42, "store_test.log", false);
  session.section("alpha").str("first");
  session.reset_section("beta").u32(1);
  session.flush();  // fresh: written whole, as a compacted image
  session.section("alpha").str("second");
  session.reset_section("beta").u32(2);
  session.section("gamma").u64(7);
  session.flush();
  session.remove_section("gamma");
  session.section("alpha").u8(3);
  session.write();
  session.section("gamma").str("back");
  session.reset_section("beta").u32(3);
  session.flush();
  return read_file_bytes(path);
}

// Resume from `image`, compare against the replay of `commits` intact
// commits, then commit once more and require the new commit to land right
// after the surviving prefix.
void expect_resumes_prefix(const std::string& path, const std::string& image,
                           const LogScan& full, std::size_t commits,
                           const std::string& context) {
  write_file_atomic(path, image);
  const std::map<std::string, std::string> expected =
      replayed_state(full, commits);
  {
    store::CheckpointSession session(path, 42, "store_test.log", true);
    EXPECT_EQ(session.resumed(), commits > 0) << context;
    EXPECT_EQ(session_state(session, kLogSections), expected) << context;
    session.section("after").str("commit");
    session.flush();
  }
  std::map<std::string, std::string> with_commit = expected;
  SectionWriter after;
  after.str("commit");
  with_commit["after"] = after.bytes();
  store::CheckpointSession reopened(path, 42, "store_test.log", true);
  EXPECT_TRUE(reopened.resumed()) << context;
  EXPECT_EQ(session_state(reopened, kLogSections), with_commit) << context;
}

TEST(CheckpointLog, TruncationAtEveryOffsetResumesTheLongestCommitPrefix) {
  TempSnapshot file("log_truncate");
  const std::string image = reference_log(file.path());
  const LogScan full = scan_log(image);
  ASSERT_EQ(full.valid_size, image.size());
  ASSERT_EQ(full.commits.size(), 4u);
  for (const LogCommit& commit : full.commits)
    ASSERT_GE(commit.changes.size(), 2u) << "every commit spans sections";
  const std::size_t header =
      encode_log_header(42, "store_test.log").size();
  std::vector<std::size_t> ends;  // end offset of each commit
  for (const LogCommit& commit : full.commits) ends.push_back(commit.end);
  ASSERT_EQ(ends.back(), image.size());

  for (std::size_t len = 0; len <= image.size(); ++len) {
    std::size_t intact = 0;
    while (intact < ends.size() && ends[intact] <= len) ++intact;
    const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
    expect_resumes_prefix(file.path(), image.substr(0, len), full, intact,
                          "prefix of " + std::to_string(len) + " bytes");
    // A torn tail, or a cut inside the header, is booked as corruption
    // exactly once; a clean commit boundary is not.
    const bool clean = len == image.size() ||
                       (len >= header && intact > 0 &&
                        ends[intact - 1] == len) ||
                       len == header;
    EXPECT_EQ(counter_value("store.snapshot.corrupt"),
              corrupt0 + (clean ? 0 : 1))
        << "prefix of " << len << " bytes";
  }
}

TEST(CheckpointLog, BitFlipAtEveryOffsetResumesTheCommitsBeforeIt) {
  TempSnapshot file("log_bitflip");
  const std::string image = reference_log(file.path());
  const LogScan full = scan_log(image);
  const std::size_t header =
      encode_log_header(42, "store_test.log").size();
  std::size_t commit = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    if (i >= full.commits[commit].end) ++commit;
    std::string mutated = image;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    // A flip in the header loses everything; a flip inside commit k keeps
    // exactly the k commits before it. Either way it is booked once.
    const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
    expect_resumes_prefix(file.path(), mutated, full,
                          i < header ? 0 : commit,
                          "bit flip at byte " + std::to_string(i));
    EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1)
        << "bit flip at byte " << i;
  }
}

TEST(CheckpointLog, CommitsAppendOnlyTheirDelta) {
  TempSnapshot file("log_delta");
  store::CheckpointSession session(file.path(), 7, "p", false);
  session.section("log").str(std::string(1000, 'x'));
  session.flush();
  const std::size_t first = read_file_bytes(file.path()).size();
  session.section("log").str("tail");
  session.flush();
  // One commit appending the 8 new bytes, not a second copy.
  EXPECT_EQ(read_file_bytes(file.path()).size(),
            first + kLogCommitFrame + log_change_size(3, 8));
}

TEST(CheckpointLog, CompactionRewritesOnlyTheLiveSections) {
  TempSnapshot file("log_compact");
  const std::uint64_t compactions0 =
      counter_value("store.snapshot.compactions");
  const std::string big(10000, 'b');
  {
    store::CheckpointSession session(file.path(), 7, "p", false);
    session.section("keep").str("kept");
    session.flush();
    for (int i = 0; i < 40; ++i) {
      session.reset_section("state").str(big + std::to_string(i));
      session.section("keep").u8(static_cast<std::uint8_t>(i));
      session.flush();
    }
    session.section("gone").str("soon removed");
    session.flush();
    session.remove_section("gone");
    session.flush();
  }
  EXPECT_GT(counter_value("store.snapshot.compactions"), compactions0);
  // Superseded sets were dropped: what is left is the live state plus at
  // most the dead bytes since the last compaction, far below the 400 KB of
  // sets that were committed.
  const std::size_t size = read_file_bytes(file.path()).size();
  EXPECT_LT(size, 10 * big.size());

  store::CheckpointSession resumed(file.path(), 7, "p", true);
  ASSERT_TRUE(resumed.resumed());
  EXPECT_FALSE(resumed.has_section("gone"));
  EXPECT_EQ(resumed.reader("state").str(), big + "39");
  SectionReader keep = resumed.reader("keep");
  EXPECT_EQ(keep.str(), "kept");
  for (int i = 0; i < 40; ++i) EXPECT_EQ(keep.u8(), i);
  EXPECT_TRUE(keep.at_end());
}

// A whole-image PITFSNAP version-1 snapshot, the format before the log:
// header (magic, version, seed, provenance, section table) + header crc32,
// then the payloads. One section, `name` holding `payload`.
std::string version_one_image(std::uint64_t seed, const std::string& provenance,
                              const std::string& name,
                              const std::string& payload) {
  SectionWriter w;
  w.raw("PITFSNAP");
  w.u32(1);
  w.u64(seed);
  w.str(provenance);
  w.u32(1);  // section count
  w.str(name);
  w.u64(w.size() + 8 + 8 + 4 + 4);  // payload offset: right after the header
  w.u64(payload.size());
  w.u32(crc32(payload));
  w.u32(crc32(w.bytes()));
  w.raw(payload);
  return w.bytes();
}

TEST(CheckpointLog, VersionOneSnapshotStartsCleanAndBecomesALog) {
  TempSnapshot file("log_v1");
  SectionWriter done;
  done.str("done");
  write_file_atomic(file.path(),
                    version_one_image(7, "p", "cell.0.outcome", done.bytes()));
  EXPECT_EQ(scan_fault(read_file_bytes(file.path())),
            SnapshotFault::bad_version);

  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  const std::uint64_t loads0 = counter_value("store.snapshot.loads");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    EXPECT_FALSE(session.resumed());
    EXPECT_FALSE(session.has_section("cell.0.outcome"));
    EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
    EXPECT_EQ(counter_value("store.snapshot.loads"), loads0);
    session.section("cell.1.log").u32(6);
    session.flush();
  }
  const std::string image = read_file_bytes(file.path());
  EXPECT_EQ(scan_log(image).valid_size, image.size());
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  EXPECT_FALSE(session.has_section("cell.0.outcome"));
  SectionReader log = session.reader("cell.1.log");
  EXPECT_EQ(log.u32(), 6u);
  EXPECT_TRUE(log.at_end());
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
}

TEST(CheckpointLog, WritesCountDurableCommits) {
  TempSnapshot file("log_writes");
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  const std::uint64_t syncs0 = counter_value("store.snapshot.syncs");
  const std::uint64_t bytes0 = counter_value("store.snapshot.bytes_written");
  store::CheckpointSession session(file.path(), 7, "p", false);
  session.section("s").u8(1);
  session.flush();  // the first image: one commit, one fsync
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 1);
  EXPECT_EQ(counter_value("store.snapshot.syncs"), syncs0 + 1);

  // write() reaches the kernel without committing.
  const std::uint64_t bytes1 = counter_value("store.snapshot.bytes_written");
  EXPECT_GT(bytes1, bytes0);
  session.section("s").u8(2);
  session.write();
  session.section("t").u8(3);
  session.write();
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 1);
  EXPECT_EQ(counter_value("store.snapshot.syncs"), syncs0 + 1);
  EXPECT_EQ(counter_value("store.snapshot.bytes_written"),
            bytes1 + (kLogCommitFrame + log_change_size(1, 1)) * 2);

  // One flush commits both writes with a single fdatasync...
  session.flush();
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 2);
  EXPECT_EQ(counter_value("store.snapshot.syncs"), syncs0 + 2);
  // ...and a flush with nothing new is free.
  session.flush();
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 2);
  EXPECT_EQ(counter_value("store.snapshot.syncs"), syncs0 + 2);
}

TEST(SnapshotFormat, SectionIndexKeepsCreationOrder) {
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back(std::to_string(i));
  SnapshotWriter w(1, "p");
  for (const std::string& name : names) w.section(name).u8(1);
  w.remove_section("10");
  w.section("10").u8(2);  // re-created: moves to the end, like a new name
  std::vector<std::string> expected;
  for (const std::string& name : names)
    if (name != "10") expected.push_back(name);
  expected.push_back("10");
  EXPECT_EQ(image_section_names(w.encode_log()), expected);
  EXPECT_EQ(w.find_section("missing"), nullptr);
}

// ------------------------------------------------------- recording oracle

TEST(RecordingOracle, ReplayServesRecordedAnswersWithoutPhysicalQueries) {
  TempSnapshot file("replay");
  Rng setup(11);
  const puf::ArbiterPuf target(8, 0.0, setup);
  const std::size_t kQueries = 40;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < kQueries; ++i)
    challenges.push_back(make_bitvec(8, 500 + i));

  std::vector<int> recorded;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle oracle(inner, session, "u.log", nullptr, 8);
    for (const BitVec& x : challenges) recorded.push_back(oracle.query_pm(x));
    oracle.flush_now();
    EXPECT_EQ(inner.queries(), kQueries);
    EXPECT_EQ(oracle.recorded_events(), kQueries);
    EXPECT_FALSE(oracle.replaying());
  }

  const std::uint64_t replayed0 =
      counter_value("store.snapshot.replayed_queries");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle oracle(inner, session, "u.log", nullptr, 8);
  EXPECT_TRUE(oracle.replaying());
  for (std::size_t i = 0; i < kQueries; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), recorded[i]) << "query " << i;
  EXPECT_FALSE(oracle.replaying());
  EXPECT_EQ(oracle.replayed_queries(), kQueries);
  EXPECT_EQ(inner.queries(), 0u) << "replay touched the physical oracle";
  EXPECT_EQ(oracle.queries(), kQueries) << "replay must still count locally";
  EXPECT_EQ(counter_value("store.snapshot.replayed_queries"),
            replayed0 + kQueries);
}

TEST(RecordingOracle, BudgetIsNotDoubleChargedAcrossResume) {
  // Satellite regression: a budget-B channel interrupted after k queries
  // must have exactly B-k answers left after resume — replayed queries
  // charge nothing, and the fault streams continue from the recorded
  // position as if the run had never stopped.
  TempSnapshot file("budget");
  Rng setup(13);
  const puf::ArbiterPuf target(8, 0.0, setup);
  const std::size_t kBudget = 12;
  const std::size_t kBeforeCrash = 5;
  FaultConfig fc;
  fc.flip_rate = 0.3;
  fc.query_budget = kBudget;

  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < kBudget; ++i)
    challenges.push_back(make_bitvec(8, 900 + i));

  // Uninterrupted reference: all kBudget answers, then refusal.
  std::vector<int> reference;
  {
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle oracle(inner, fc, 4242);
    for (const BitVec& x : challenges) reference.push_back(oracle.query_pm(x));
    EXPECT_THROW(oracle.query_pm(challenges[0]), QueryBudgetExhaustedError);
  }

  {  // Interrupted run: k queries, flush, "crash".
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 4242);
    store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 4);
    for (std::size_t i = 0; i < kBeforeCrash; ++i)
      EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]);
    oracle.flush_now();
    EXPECT_EQ(faulty.remaining_budget(), kBudget - kBeforeCrash);
  }

  // Resume: a FRESH fault channel (budget back at B) plus the journal.
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  FaultyMembershipOracle faulty(inner, fc, 4242);
  store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 4);
  for (std::size_t i = 0; i < kBeforeCrash; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]);
  // Replay complete: the channel sits exactly where the crash left it.
  EXPECT_EQ(faulty.remaining_budget(), kBudget - kBeforeCrash);
  EXPECT_EQ(inner.queries(), 0u);
  // The remaining budget serves the remaining queries with the same fault
  // pattern as the uninterrupted run, then refuses.
  for (std::size_t i = kBeforeCrash; i < kBudget; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]) << "query " << i;
  EXPECT_THROW(oracle.query_pm(challenges[0]), QueryBudgetExhaustedError);
  EXPECT_EQ(inner.queries(), kBudget - kBeforeCrash);
}

// One interaction through `oracle`: +1/-1 answer, 0 drop, 9 refusal.
int interaction(ml::MembershipOracle& oracle, const BitVec& x) {
  try {
    return oracle.query_pm(x);
  } catch (const TransientFaultError&) {
    return 0;
  } catch (const QueryBudgetExhaustedError&) {
    return 9;
  }
}

// A flush appends the journal and replaces the fault-channel state in one
// commit. A file cut anywhere inside that commit (power loss before the
// fdatasync, a write(2) cut short) must advance neither section: resuming
// replays the older journal against the older state, and the continuation
// matches an uninterrupted run exactly.
TEST(RecordingOracle, CutInsideAFlushAdvancesNeitherSection) {
  TempSnapshot file("flush_cut");
  Rng setup(29);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.3;
  fc.drop_rate = 0.2;
  fc.query_budget = 14;
  constexpr std::size_t kCadence = 4;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 16; ++i)
    challenges.push_back(make_bitvec(8, 300 + i));

  std::vector<int> reference;
  {
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle oracle(inner, fc, 77);
    for (const BitVec& x : challenges)
      reference.push_back(interaction(oracle, x));
  }

  // Two cadences: the first flush writes the image, the second appends one
  // commit holding both sections' changes.
  std::string first;
  std::string second;
  {
    store::CheckpointSession session(file.path(), 7, "p", false);
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 77);
    store::RecordingOracle oracle(faulty, session, "u.log", &faulty,
                                  kCadence);
    for (std::size_t i = 0; i < 2 * kCadence; ++i) {
      EXPECT_EQ(interaction(oracle, challenges[i]), reference[i]);
      if (i + 1 == kCadence) first = read_file_bytes(file.path());
    }
    second = read_file_bytes(file.path());
  }
  ASSERT_EQ(second.substr(0, first.size()), first);
  const LogScan appended = scan_log(second);
  ASSERT_EQ(appended.commits.size(), 2u);
  ASSERT_EQ(appended.commits[1].changes.size(), 2u);

  const std::vector<std::string> sections = {"u.log", "u.log.oracle"};
  write_file_atomic(file.path(), first);
  const std::map<std::string, std::string> at_first =
      session_state(store::CheckpointSession(file.path(), 7, "p", true),
                    sections);
  ASSERT_EQ(at_first.size(), 2u);

  for (std::size_t len = first.size() + 1; len < second.size(); ++len) {
    const std::string context = "cut at byte " + std::to_string(len);
    write_file_atomic(file.path(), second.substr(0, len));
    store::CheckpointSession session(file.path(), 7, "p", true);
    ASSERT_TRUE(session.resumed()) << context;
    EXPECT_EQ(session_state(session, sections), at_first) << context;

    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 77);
    store::RecordingOracle oracle(faulty, session, "u.log", &faulty,
                                  kCadence);
    for (std::size_t i = 0; i < challenges.size(); ++i)
      EXPECT_EQ(interaction(oracle, challenges[i]), reference[i])
          << context << ", query " << i;
    EXPECT_EQ(oracle.replayed_queries(), kCadence) << context;
  }
}

TEST(RecordingOracle, BudgetRefusalsAndDropsReplayAsEvents) {
  TempSnapshot file("events");
  Rng setup(17);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.drop_rate = 0.5;
  fc.query_budget = 6;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 10; ++i)
    challenges.push_back(make_bitvec(8, 700 + i));

  // Record interactions until the budget refuses a few times.
  std::vector<int> kinds;  // +1/-1 answer, 0 drop, 9 refusal
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 99);
    store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 2);
    for (const BitVec& x : challenges) {
      try {
        kinds.push_back(oracle.query_pm(x));
      } catch (const TransientFaultError&) {
        kinds.push_back(0);
      } catch (const QueryBudgetExhaustedError&) {
        kinds.push_back(9);
      }
    }
    oracle.flush_now();
  }
  EXPECT_NE(std::count(kinds.begin(), kinds.end(), 9), 0)
      << "test setup never exhausted the budget";

  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  FaultyMembershipOracle faulty(inner, fc, 99);
  store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 2);
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    int kind = 0;
    try {
      kind = oracle.query_pm(challenges[i]);
    } catch (const TransientFaultError&) {
      kind = 0;
    } catch (const QueryBudgetExhaustedError&) {
      kind = 9;
    }
    EXPECT_EQ(kind, kinds[i]) << "event " << i;
  }
  EXPECT_EQ(inner.queries(), 0u);
}

// Satellite regression (DESIGN.md §16): a lockdown-tripped recording can be
// continued against a refilled budget. Recorded refusals are stripped from
// the replay queue (drop_recorded_refusals), recorded answers replay free,
// and only the continuation queries reach the physical oracle.
TEST(RecordingOracle, RefilledBudgetContinuationChargesOnlyLiveQueries) {
  TempSnapshot file("refill");
  Rng setup(23);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.query_budget = 5;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 12; ++i)
    challenges.push_back(make_bitvec(8, 900 + i));

  // Leg 1: answer until the lockdown trips (5 answers, then a recorded
  // budget refusal).
  std::vector<int> first_answers;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 5);
    store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 2);
    for (const BitVec& x : challenges) {
      try {
        first_answers.push_back(oracle.query_pm(x));
      } catch (const QueryBudgetExhaustedError&) {
        break;
      }
    }
    oracle.flush_now();
  }
  ASSERT_EQ(first_answers.size(), 5u);

  // Leg 2: refilled channel, refusals stripped. The recorded prefix replays
  // byte-identically without touching the inner oracle; the remaining
  // challenges are answered live against the refilled budget.
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  FaultyMembershipOracle faulty(inner, fc, 5);
  faulty.refill_budget(20);
  store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 2, true);
  std::vector<int> answers;
  for (const BitVec& x : challenges) answers.push_back(oracle.query_pm(x));
  ASSERT_EQ(answers.size(), challenges.size());
  for (std::size_t i = 0; i < first_answers.size(); ++i)
    EXPECT_EQ(answers[i], first_answers[i]) << "replayed answer " << i;
  EXPECT_EQ(oracle.replayed_queries(), 5u);
  EXPECT_EQ(inner.queries(), challenges.size() - first_answers.size());
}

// One session leg over `challenges` through a Function -> Faulty ->
// Recording stack (cadence 4): element by element through query_pm, or as
// one query_pm_batch. Returns the interactions (+1/-1 answer, 0 drop, 9
// refusal, ending at the first refusal) and leaves the session flushed.
std::vector<int> journal_leg(const std::string& path,
                             const puf::ArbiterPuf& target,
                             const FaultConfig& fc,
                             const std::vector<BitVec>& challenges,
                             bool batch) {
  store::CheckpointSession session(path, 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  FaultyMembershipOracle faulty(inner, fc, 41);
  store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 4);
  std::vector<int> out;
  if (batch) {
    std::vector<int> answers(challenges.size());
    std::vector<ml::QueryStatus> status(challenges.size());
    const std::size_t done =
        oracle.query_pm_batch(challenges, answers, status);
    for (std::size_t i = 0; i < done; ++i)
      out.push_back(status[i] == ml::QueryStatus::answered  ? answers[i]
                    : status[i] == ml::QueryStatus::dropped ? 0
                                                            : 9);
  } else {
    for (const BitVec& x : challenges) {
      out.push_back(interaction(oracle, x));
      if (out.back() == 9) break;
    }
  }
  oracle.flush_now();
  return out;
}

FaultConfig lossy_lockdown() {
  FaultConfig fc;
  fc.flip_rate = 0.2;
  fc.drop_rate = 0.25;
  fc.query_budget = 20;
  return fc;
}

// The batch path forwards its live part in sub-batches that end at each
// flush point, so one batch through the recorder must write the very
// commits the element-by-element loop writes: the same events (drops and
// the final refusal included) and the same fault-channel state at each of
// the flushes that land inside the batch.
TEST(RecordingOracle, OneBatchWritesTheScalarLoopsSessionBytes) {
  TempSnapshot scalar_file("batch_scalar");
  TempSnapshot batch_file("batch_batch");
  Rng setup(37);
  const puf::ArbiterPuf target(8, 0.0, setup);
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 32; ++i)
    challenges.push_back(make_bitvec(8, 1100 + i));

  const std::vector<int> scalar = journal_leg(
      scalar_file.path(), target, lossy_lockdown(), challenges, false);
  const std::vector<int> batch = journal_leg(
      batch_file.path(), target, lossy_lockdown(), challenges, true);
  EXPECT_EQ(batch, scalar);
  ASSERT_EQ(scalar.back(), 9) << "test setup never tripped the lockdown";
  EXPECT_NE(std::count(scalar.begin(), scalar.end(), 0), 0)
      << "test setup never dropped a response";
  const std::string bytes = read_file_bytes(scalar_file.path());
  EXPECT_EQ(read_file_bytes(batch_file.path()), bytes);
  // One commit per flush point inside the batch, none compacted away.
  EXPECT_GT(scan_log(bytes).commits.size(), 4u);
  // The journal holds what happened: resuming replays every interaction.
  EXPECT_EQ(journal_leg(batch_file.path(), target, lossy_lockdown(),
                        challenges, true),
            scalar);
}

// A batch that runs past the end of a restored journal: the recorded
// prefix is served from the journal, the fault channel is restored before
// the live rest is forwarded, and the continued session file equals the
// element-by-element continuation's — whose answers equal an uninterrupted
// run's.
TEST(RecordingOracle, BatchStraddlingTheRestoredJournalMatchesTheScalarLoop) {
  TempSnapshot scalar_file("straddle_scalar");
  TempSnapshot batch_file("straddle_batch");
  TempSnapshot fresh_file("straddle_fresh");
  Rng setup(38);
  const puf::ArbiterPuf target(8, 0.0, setup);
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 32; ++i)
    challenges.push_back(make_bitvec(8, 1200 + i));
  const std::vector<BitVec> prefix(challenges.begin(), challenges.begin() + 9);

  const std::vector<int> reference = journal_leg(
      fresh_file.path(), target, lossy_lockdown(), challenges, false);
  journal_leg(scalar_file.path(), target, lossy_lockdown(), prefix, false);
  write_file_atomic(batch_file.path(), read_file_bytes(scalar_file.path()));

  EXPECT_EQ(journal_leg(scalar_file.path(), target, lossy_lockdown(),
                        challenges, false),
            reference);
  EXPECT_EQ(journal_leg(batch_file.path(), target, lossy_lockdown(),
                        challenges, true),
            reference);
  EXPECT_EQ(read_file_bytes(batch_file.path()),
            read_file_bytes(scalar_file.path()));
}

// While termination is pending every record flushes; a batch then commits
// element by element too.
TEST(RecordingOracle, BatchUnderPendingTerminationCommitsPerElement) {
  TempSnapshot scalar_file("term_scalar");
  TempSnapshot batch_file("term_batch");
  Rng setup(39);
  const puf::ArbiterPuf target(8, 0.0, setup);
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 32; ++i)
    challenges.push_back(make_bitvec(8, 1300 + i));

  store::request_termination();
  const std::vector<int> scalar = journal_leg(
      scalar_file.path(), target, lossy_lockdown(), challenges, false);
  const std::vector<int> batch = journal_leg(
      batch_file.path(), target, lossy_lockdown(), challenges, true);
  store::clear_termination();
  EXPECT_EQ(batch, scalar);
  const std::string bytes = read_file_bytes(scalar_file.path());
  EXPECT_EQ(read_file_bytes(batch_file.path()), bytes);
  // One commit per interaction, plus the leg's closing flush_now.
  EXPECT_EQ(scan_log(bytes).commits.size(), scalar.size() + 1);
}

// oracle.batch.* books one call per caller batch, however many layers the
// stack has and however many sub-batches the recorder forwards; the scalar
// query_pm books none.
TEST(RecordingOracle, StackBooksOneBatchPerCallerBatchAndNoneForScalar) {
  TempSnapshot file("booking");
  Rng setup(40);
  const puf::ArbiterPuf target(8, 0.0, setup);
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 12; ++i)
    challenges.push_back(make_bitvec(8, 1400 + i));
  FaultConfig fc;
  fc.drop_rate = 0.3;

  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  FaultyMembershipOracle faulty(inner, fc, 43);
  store::RecordingOracle oracle(faulty, session, "u.log", &faulty, 4);
  auto& registry = obs::MetricsRegistry::global();
  obs::Histogram& sizes = registry.histogram("oracle.batch.size");
  const std::uint64_t calls0 = counter_value("oracle.batch.calls");
  const std::uint64_t elements0 = counter_value("oracle.batch.elements");
  const std::size_t samples0 = sizes.count();

  for (const BitVec& x : challenges) (void)interaction(oracle, x);
  EXPECT_EQ(counter_value("oracle.batch.calls"), calls0);
  EXPECT_EQ(counter_value("oracle.batch.elements"), elements0);
  EXPECT_EQ(sizes.count(), samples0);

  std::vector<int> answers(challenges.size());
  std::vector<ml::QueryStatus> status(challenges.size());
  EXPECT_EQ(oracle.query_pm_batch(challenges, answers, status),
            challenges.size());
  EXPECT_NE(std::count(status.begin(), status.end(),
                       ml::QueryStatus::dropped),
            0);
  EXPECT_EQ(counter_value("oracle.batch.calls"), calls0 + 1);
  EXPECT_EQ(counter_value("oracle.batch.elements"),
            elements0 + challenges.size());
  EXPECT_EQ(sizes.count(), samples0 + 1);
}

TEST(RecordingOracle, DivergenceThrowsAndBooksTheMetric) {
  TempSnapshot file("diverge");
  Rng setup(19);
  const puf::ArbiterPuf target(8, 0.0, setup);
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle oracle(inner, session, "u.log", nullptr, 2);
    (void)oracle.query_pm(make_bitvec(8, 1));
    oracle.flush_now();
  }
  const std::uint64_t divergence0 = counter_value("store.snapshot.divergence");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle oracle(inner, session, "u.log", nullptr, 2);
  EXPECT_THROW(oracle.query_pm(make_bitvec(8, 2)),
               store::ReplayDivergenceError);
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence0 + 1);
  EXPECT_EQ(inner.queries(), 0u);
}

// ------------------------------------------------------ checkpointed units

TEST(CheckpointedUnit, StoredOutcomeShortCircuitsTheRun) {
  TempSnapshot file("unit");
  int runs = 0;
  const auto run = [&] {
    ++runs;
    LearnOutcome<ml::LinearModel> outcome;
    outcome.status = ml::robust::LearnStatus::converged;
    outcome.queries_spent = 5;
    return outcome;
  };
  const auto put = [](SectionWriter& w,
                      const LearnOutcome<ml::LinearModel>& o) {
    store::put_outcome(w, o, [](SectionWriter&, const ml::LinearModel&) {});
  };
  const auto get = [](SectionReader& r) {
    return store::get_outcome<ml::LinearModel>(
        r, [](SectionReader&) -> ml::LinearModel {
          return ml::LinearModel(1, {0.0, 0.0}, ml::parity_with_bias);
        });
  };

  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    const auto o = store::checkpointed_unit<LearnOutcome<ml::LinearModel>>(
        &session, "cell.0", run, put, get);
    EXPECT_EQ(o.queries_spent, 5u);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(session.has_section("cell.0.log"));
  }
  store::CheckpointSession session(file.path(), 7, "p", true);
  const auto o = store::checkpointed_unit<LearnOutcome<ml::LinearModel>>(
      &session, "cell.0", run, put, get);
  EXPECT_EQ(o.queries_spent, 5u);
  EXPECT_EQ(runs, 1) << "stored outcome re-ran the unit";
}

// A stale journal (recorded for a challenge the unit no longer asks)
// diverges on the first query. checkpointed_unit must drop the journal and
// its fault-channel state, rerun the unit clean, and store the outcome.
TEST(CheckpointedUnit, DivergenceRetryDropsTheJournalAndRunsClean) {
  TempSnapshot file("unit_diverge");
  Rng setup(31);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.2;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 5);
    store::RecordingOracle oracle(faulty, session, "cell.0.log", &faulty, 8);
    (void)oracle.query_pm(make_bitvec(8, 1));
    oracle.flush_now();
  }
  const BitVec asked = make_bitvec(8, 2);
  int reference = 0;
  {
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 5);
    reference = faulty.query_pm(asked);
  }

  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.has_section("cell.0.log.oracle"));
  int runs = 0;
  std::size_t replayed = 0;
  std::size_t physical = 0;
  std::size_t position = 0;
  const auto run = [&] {
    ++runs;
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 5);
    store::RecordingOracle oracle(faulty, session, "cell.0.log", &faulty, 8);
    const int answer = oracle.query_pm(asked);
    replayed = oracle.replayed_queries();
    physical = inner.queries();
    position = faulty.raw_queries();
    return answer;
  };
  const auto put = [](SectionWriter& w, const int& v) {
    w.u8(v < 0 ? std::uint8_t{1} : std::uint8_t{0});
  };
  const auto get = [](SectionReader& r) { return r.u8() != 0 ? -1 : +1; };
  const std::uint64_t divergence0 = counter_value("store.snapshot.divergence");
  EXPECT_EQ(store::checkpointed_unit<int>(&session, "cell.0", run, put, get),
            reference);
  EXPECT_EQ(runs, 2) << "divergence should rerun the unit exactly once";
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence0 + 1);
  EXPECT_EQ(replayed, 0u);
  EXPECT_EQ(physical, 1u);
  EXPECT_EQ(position, 1u) << "the stale fault-channel state was restored";
  EXPECT_FALSE(session.has_section("cell.0.log"));
  EXPECT_FALSE(session.has_section("cell.0.log.oracle"));

  store::CheckpointSession resumed(file.path(), 7, "p", true);
  EXPECT_EQ(store::checkpointed_unit<int>(&resumed, "cell.0", run, put, get),
            reference);
  EXPECT_EQ(runs, 2) << "the stored outcome re-ran the unit";
}

// Serialized image of an outcome — byte equality is the strongest
// observable identity the resume contract promises.
template <typename H, typename PutH>
std::string outcome_bytes(const LearnOutcome<H>& outcome, PutH&& put) {
  SectionWriter w;
  store::put_outcome(w, outcome, put);
  return w.bytes();
}

TEST(ResumeDeterminism, LearnerRerunFromJournalIsByteIdentical) {
  // Full-journal replay is the resume path's worst case: the learner
  // re-runs from scratch with every oracle answer served from the log. The
  // outcome must serialize to the same bytes and cost zero physical
  // queries.
  TempSnapshot file("learner");
  Rng setup(7);
  const puf::ArbiterPuf target(10, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.1;
  fc.query_budget = 900;
  RobustLearnConfig config;
  config.train_queries = 600;
  config.holdout_queries = 120;

  const auto run_once = [&](store::CheckpointSession* session,
                            std::size_t& physical) {
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle faulty(inner, fc, 31337);
    Rng rng(41);
    if (session == nullptr) {
      const auto o = robust_perceptron(faulty, ml::parity_with_bias, config,
                                       rng);
      physical = inner.queries();
      return o;
    }
    store::RecordingOracle journal(faulty, *session, "cell.log", &faulty, 64);
    const auto o = robust_perceptron(journal, ml::parity_with_bias, config,
                                     rng);
    journal.flush_now();
    physical = inner.queries();
    return o;
  };
  const auto put = [](SectionWriter& w, const ml::LinearModel& m) {
    store::put_linear_model(w, m);
  };

  std::size_t physical_plain = 0;
  const auto plain = run_once(nullptr, physical_plain);

  std::size_t physical_recorded = 0;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    const auto recorded = run_once(&session, physical_recorded);
    EXPECT_EQ(outcome_bytes(recorded, put), outcome_bytes(plain, put));
    EXPECT_EQ(physical_recorded, physical_plain);
  }

  std::size_t physical_replayed = 0;
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  const auto replayed = run_once(&session, physical_replayed);
  EXPECT_EQ(outcome_bytes(replayed, put), outcome_bytes(plain, put));
  EXPECT_EQ(physical_replayed, 0u)
      << "resume re-queried the physical oracle";
}

TEST(ResumeDeterminism, SatAttackRerunFromJournalMatches) {
  TempSnapshot file("sat");
  const circuit::Netlist netlist = circuit::c17();
  Rng lock_rng(1004);
  const lock::LockedCircuit locked =
      lock::lock_random_xor(netlist, 4, lock_rng);

  attack::SatAttackConfig config;
  attack::SatAttackResult first;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    attack::CircuitOracle oracle = attack::CircuitOracle::from_netlist(netlist);
    store::AttackObservationJournal journal(&session, "cell.log", 2);
    config.journal = &journal;
    first = attack::sat_attack(locked, oracle, config);
    session.flush();
  }
  ASSERT_TRUE(first.success);
  EXPECT_EQ(first.replayed_queries, 0u);

  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  attack::CircuitOracle oracle = attack::CircuitOracle::from_netlist(netlist);
  store::AttackObservationJournal journal(&session, "cell.log", 2);
  config.journal = &journal;
  const attack::SatAttackResult second = attack::sat_attack(locked, oracle,
                                                            config);
  EXPECT_EQ(second.key, first.key);
  EXPECT_EQ(second.dip_iterations, first.dip_iterations);
  EXPECT_EQ(second.oracle_queries, first.oracle_queries);
  EXPECT_EQ(second.solver_stats.conflicts, first.solver_stats.conflicts);
  EXPECT_EQ(second.replayed_queries, first.oracle_queries)
      << "the rerun should be served entirely from the journal";
}

TEST(AttackObservationJournal, DivergenceThrowsBooksTheMetricAndQueriesNothing) {
  TempSnapshot file("obs_diverge");
  const circuit::Netlist netlist = circuit::c17();
  Rng lock_rng(1004);
  const lock::LockedCircuit locked =
      lock::lock_random_xor(netlist, 4, lock_rng);
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    attack::CircuitOracle oracle = attack::CircuitOracle::from_netlist(netlist);
    store::AttackObservationJournal journal(&session, "cell.log", 2);
    attack::SatAttackConfig config;
    config.journal = &journal;
    ASSERT_TRUE(attack::sat_attack(locked, oracle, config).success);
    session.flush();
  }
  {  // Replace the journal by its first observation with the input changed.
    store::CheckpointSession session(file.path(), 7, "p", true);
    SectionReader r = session.reader("cell.log");
    BitVec x = store::get_bitvec(r);
    const BitVec y = store::get_bitvec(r);
    x.set(0, !x.get(0));
    SectionWriter& w = session.reset_section("cell.log");
    store::put_bitvec(w, x);
    store::put_bitvec(w, y);
    session.flush();
  }

  const std::uint64_t divergence0 = counter_value("store.snapshot.divergence");
  store::CheckpointSession session(file.path(), 7, "p", true);
  attack::CircuitOracle oracle = attack::CircuitOracle::from_netlist(netlist);
  store::AttackObservationJournal journal(&session, "cell.log", 2);
  attack::SatAttackConfig config;
  config.journal = &journal;
  EXPECT_THROW(attack::sat_attack(locked, oracle, config),
               store::ReplayDivergenceError);
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence0 + 1);
  EXPECT_EQ(oracle.queries(), 0u) << "divergence reached the oracle";
  EXPECT_EQ(journal.replayed(), 0u);
}

TEST(AttackObservationJournal, TerminationFlagFlushesTheJournal) {
  TempSnapshot file("obs_term");
  const BitVec x1 = make_bitvec(6, 1);
  const BitVec y1 = make_bitvec(2, 2);
  const BitVec x2 = make_bitvec(6, 3);
  const BitVec y2 = make_bitvec(2, 4);
  store::clear_termination();
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    // Cadence of 1000 would never flush on its own in 2 observations...
    store::AttackObservationJournal journal(&session, "cell.log", 1000);
    journal.record(x1, y1);
    EXPECT_EQ(counter_value("store.snapshot.writes"), writes0);
    store::request_termination();  // ...until the termination flag is up.
    journal.record(x2, y2);
    EXPECT_GT(counter_value("store.snapshot.writes"), writes0);
  }
  store::clear_termination();
  // The flushed journal is complete: both observations replay.
  store::CheckpointSession session(file.path(), 7, "p", true);
  store::AttackObservationJournal journal(&session, "cell.log", 1000);
  EXPECT_EQ(journal.serve(x1), std::optional<BitVec>(y1));
  EXPECT_EQ(journal.serve(x2), std::optional<BitVec>(y2));
  EXPECT_EQ(journal.serve(x1), std::nullopt);
  EXPECT_EQ(journal.replayed(), 2u);
}

// -------------------------------------------------------------- termination

TEST(Termination, RequestFlagTriggersJournalFlush) {
  TempSnapshot file("term");
  Rng setup(23);
  const puf::ArbiterPuf target(8, 0.0, setup);
  store::clear_termination();
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    // Cadence of 1000 would never flush on its own in 3 queries...
    store::RecordingOracle oracle(inner, session, "u.log", nullptr, 1000);
    (void)oracle.query_pm(make_bitvec(8, 1));
    EXPECT_EQ(counter_value("store.snapshot.writes"), writes0);
    store::request_termination();  // ...until the termination flag is up.
    (void)oracle.query_pm(make_bitvec(8, 2));
    EXPECT_GT(counter_value("store.snapshot.writes"), writes0);
  }
  store::clear_termination();
  // The flushed journal is complete: both events replay.
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle oracle(inner, session, "u.log", nullptr, 1000);
  (void)oracle.query_pm(make_bitvec(8, 1));
  (void)oracle.query_pm(make_bitvec(8, 2));
  EXPECT_EQ(oracle.replayed_queries(), 2u);
  EXPECT_EQ(inner.queries(), 0u);
}

}  // namespace
