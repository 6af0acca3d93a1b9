// Checkpoint-backed attack::ObservationLog: journals the oracle traffic of
// the oracle-guided attacks (SAT attack, AppSAT) into a CheckpointSession
// section and replays it on resume.
//
// This is the store-side half of the seam declared in
// attack/observation_log.hpp: the attack layer only sees the abstract log,
// and store (the top of the module DAG) plugs persistence in underneath.
//
// Contract: the store::Journal contract (checkpoint.hpp) over records of
// (input, response) — serve() replays, record() appends and flushes the
// session every `flush_every` new observations, immediately once a SIGTERM
// flush is pending. A null session makes the journal inert (serve misses,
// record drops), so callers can wire it unconditionally.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "attack/observation_log.hpp"
#include "store/checkpoint.hpp"

namespace pitfalls::store {

class AttackObservationJournal final : public attack::ObservationLog {
 public:
  // The cadence contract is checked by store::Journal.  lint:require-guard-ok
  AttackObservationJournal(CheckpointSession* session, std::string section,
                           std::size_t flush_every = 16) {
    if (session != nullptr)
      journal_.emplace(*session, std::move(section), flush_every);
  }

  std::optional<support::BitVec> serve(const support::BitVec& x) override {
    const Codec::Record* recorded = journal_ ? journal_->replay(x) : nullptr;
    if (recorded == nullptr) return std::nullopt;
    return recorded->second;
  }

  void record(const support::BitVec& x, const support::BitVec& y) override {
    if (journal_ && journal_->record(x, y)) journal_->session().flush();
  }

  std::size_t replayed() const override {
    return journal_ ? journal_->replayed() : 0;
  }

 private:
  /// Observation codec: the input, then the response.
  struct Codec {
    using Record = std::pair<support::BitVec, support::BitVec>;
    static constexpr const char* kNoun = "observation";
    static Record get(support::snapshot::SectionReader& r) {
      support::BitVec x = get_bitvec(r);
      return {std::move(x), get_bitvec(r)};
    }
    static void put(support::snapshot::SectionWriter& w,
                    const support::BitVec& x, const support::BitVec& y) {
      put_bitvec(w, x);
      put_bitvec(w, y);
    }
    static const support::BitVec& input(const Record& o) { return o.first; }
  };

  std::optional<Journal<Codec>> journal_;
};

}  // namespace pitfalls::store
