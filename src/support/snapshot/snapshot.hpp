// Crash-safe snapshot files — the binary format under the experiment store
// (src/store, DESIGN.md §14).
//
// A checkpoint is an append-only log (format version 2):
//
//   magic "PITFSNAP"            8 bytes
//   format version              u32 LE (= 2)
//   seed                        u64 LE   (seed provenance: the root seed)
//   provenance string           u32 length + bytes (free-form, e.g. bench
//                                argv + config fingerprint)
//   header crc32                u32 LE over every byte above
//   commits, to end of file     per commit: body length u32 LE,
//                                crc32 u32 LE over the length bytes + body,
//                                body = one or more changes, each
//                                op u8 (1 append, 2 set, 3 remove),
//                                section name (u32 length + bytes),
//                                payload (u32 length + bytes; empty for
//                                remove)
//
// Every integer is little-endian regardless of host byte order. Persisting
// one more change costs that change's bytes rather than the whole history.
// A commit is the unit of atomicity: replaying the commits in order
// rebuilds the sections, and a reader keeps the longest prefix of intact
// commits. A short, bad-CRC or malformed commit and everything after it is
// a torn tail (scan_log), so a crash mid-append drops that commit's changes
// to every section together, never some of them. A wrong magic, an unknown
// version (any other than 2) or a bad header CRC is a typed SnapshotError —
// corruption can degrade a run to a clean restart (src/store policy) but
// can never be read as valid data. Commits are appended through
// AppendFile; a full image (fresh start, compaction) goes through
// write_file_atomic.
//
// Atomicity: write_file_atomic() writes `path + ".tmp"`, fsyncs, then
// renames over `path`. A crash at ANY byte offset leaves either the
// complete old file or the complete new one at `path`, never a torn
// mix; a stray .tmp from a killed writer is ignored by readers and
// overwritten by the next write. The kill-at-every-byte-offset torture tests
// in store_test.cpp pin this contract down.
//
// This header is one of the two sanctioned raw-file-I/O sites in the tree
// (the other is src/obs); the `raw-io` lint rule forbids fopen/fstream
// anywhere else so that all experiment state flows through this format.
#pragma once

#include <cstdint>
#include <list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/require.hpp"

namespace pitfalls::support::snapshot {

/// Why a snapshot could not be read. `truncated` and `bad_crc` are the
/// corruption cases the torture tests sweep; `bad_version` covers files
/// from any other (older, future or mangled) format revision.
enum class SnapshotFault {
  io,           // file missing / unreadable / unwritable
  bad_magic,    // not a snapshot file at all
  bad_version,  // unknown format version
  truncated,    // file ends before the declared bytes
  bad_crc,      // header checksum mismatch
  bad_section,  // a section's payload ran dry
};

const char* to_string(SnapshotFault fault);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}
  SnapshotFault fault() const { return fault_; }

 private:
  SnapshotFault fault_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the per-section checksum.
/// `seed` chains partial computations: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

/// Whole file as bytes. Throws SnapshotError{io} when unreadable. The
/// sanctioned low-level read shared by the snapshot format and the few
/// tools (JSON validators) that need raw bytes without the format.
std::string read_file_bytes(const std::string& path);

/// Crash-safe whole-file write: serialise to `path + ".tmp"`, flush+fsync,
/// rename over `path`. Throws SnapshotError{io} on any failure (the .tmp is
/// removed best-effort). After return, `path` holds exactly `bytes`.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Throws SnapshotError{io} unless `path` can be written (probed by
/// creating and removing `path + ".tmp"`, without touching `path` itself).
/// Lets checkpoint sessions reject an unwritable path at startup instead
/// of aborting at the first cadence flush, hours into a run.
void probe_writable(const std::string& path);

/// Append-friendly byte buffer with the format's primitive encodings. All
/// integers little-endian; f64 is the IEEE-754 bit pattern (bit-exact round
/// trips — resume determinism depends on it).
class SectionWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(std::string_view s);
  /// Raw bytes, no prefix (caller knows the length from its own framing).
  void raw(std::string_view s) { bytes_.append(s); }

  const std::string& bytes() const { return bytes_; }
  bool empty() const { return bytes_.empty(); }
  std::size_t size() const { return bytes_.size(); }
  void clear() { bytes_.clear(); }

 private:
  std::string bytes_;
};

/// Bounds-checked cursor over one section's payload. Every read past the
/// end throws SnapshotError{bad_section} — a short section can never be
/// silently zero-filled.
class SectionReader {
 public:
  SectionReader(std::string_view bytes, std::string name)
      : bytes_(bytes), name_(std::move(name)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  const std::string& name() const { return name_; }

 private:
  std::string_view take(std::size_t n);

  std::string_view bytes_;
  std::string name_;
  std::size_t pos_ = 0;
};

constexpr std::uint32_t kLogFormatVersion = 2;

/// Framing ahead of a commit body: length u32 + crc u32.
constexpr std::size_t kLogCommitFrame = 8;

/// What a checkpoint-log change does to its section.
enum class LogOp : std::uint8_t {
  append = 1,  // create-if-absent, then append the payload
  set = 2,     // create-or-replace with the payload
  remove = 3,  // drop the section (unknown names are ignored)
};

/// One decoded change; views into the scanned image.
struct LogChange {
  LogOp op;
  std::string_view name;
  std::string_view payload;
};

/// One intact commit: its changes, in order, and the offset it ends at.
struct LogCommit {
  std::vector<LogChange> changes;
  std::size_t end = 0;
};

/// The header of a log image for this run identity (no commits).
std::string encode_log_header(std::uint64_t seed, std::string_view provenance);

/// Frame `changes` onto `out` as one commit. `changes` must not be empty.
void append_log_commit(std::string& out, const std::vector<LogChange>& changes);

/// Body bytes a change with this name and payload adds to its commit.
std::size_t log_change_size(std::size_t name_size, std::size_t payload_size);

/// A scanned log image: its identity plus the longest prefix of intact
/// commits. Bytes past `valid_size` are a torn tail.
struct LogScan {
  std::uint64_t seed = 0;
  std::string provenance;
  std::vector<LogCommit> commits;
  std::size_t valid_size = 0;  // end of the last intact commit
};

/// Validate a log header (magic, version, CRC — a bad header throws
/// SnapshotError{bad_magic|bad_version|truncated|bad_crc}) and collect
/// commits up to the
/// first short, bad-CRC or malformed commit. Never throws for a bad commit:
/// a torn tail is the expected shape of a crash mid-append. The returned
/// views point into `bytes`.
LogScan scan_log(std::string_view bytes);

/// Append handle on a checkpoint log: write(2) without userspace buffering,
/// fdatasync on request. Closes on destruction.
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile() { close(); }

  /// Open `path` for appending after cutting it to `size` bytes, which
  /// drops a torn tail. Throws SnapshotError{io}.
  void open(const std::string& path, std::uint64_t size);
  bool is_open() const { return fd_ >= 0; }
  /// Hand all of `bytes` to the kernel (short writes are retried). A
  /// process crash after return loses none of them; a power loss may, until
  /// sync(). Throws SnapshotError{io}.
  void append(std::string_view bytes);
  /// fdatasync: everything appended so far survives a power loss. Throws
  /// SnapshotError{io}.
  void sync();
  void close();

 private:
  int fd_ = -1;
};

/// Builds a snapshot in memory (encode_log() is the image write_file_atomic
/// stores). Section order is the order of first creation, so encode_log()
/// is deterministic for a fixed call sequence (byte-identical snapshots for
/// byte-identical runs). Sections are indexed by name, so lookups cost O(1)
/// whatever the section count.
///
/// Change tracking for checkpoint logs: section(), reset_section() and
/// remove_section() mark a section changed until the next commit
/// (encode_commit() or mark_committed()), so a commit costs the changed
/// sections, not all of them. A SectionWriter reference must be re-fetched
/// after a commit before appending to it again.
class SnapshotWriter {
 public:
  SnapshotWriter(std::uint64_t seed, std::string provenance);
  // The index and the change list point into the section list.
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Get-or-create: an existing section is returned for appending.
  SectionWriter& section(const std::string& name);
  /// Create-or-clear: the section starts empty (state sections that are
  /// rewritten at every flush).
  SectionWriter& reset_section(const std::string& name);
  /// Drop a section entirely (e.g. a query log superseded by its final
  /// outcome). Unknown names are ignored.
  void remove_section(const std::string& name);
  bool has_section(const std::string& name) const;
  /// The section, or nullptr when absent (read access without creating).
  const SectionWriter* find_section(const std::string& name) const;

  std::uint64_t seed() const { return seed_; }
  const std::string& provenance() const { return provenance_; }

  /// Apply one checkpoint-log change.
  void apply(const LogChange& change);

  /// The sections as a compacted log image: header + one commit holding a
  /// `set` per section, in creation order (header only when empty).
  std::string encode_log() const;

  /// Append one commit holding every change since the last commit to
  /// `out`, and count those changes as committed. Returns false (and
  /// appends nothing) when no section changed.
  bool encode_commit(std::string& out);
  /// Count the current sections as committed, e.g. after encode_log() was
  /// written or a log was replayed.
  void mark_committed();
  /// Commit-body bytes the committed sections take in a compacted image.
  std::uint64_t committed_bytes() const { return committed_bytes_; }

 private:
  struct Entry {
    std::string name;
    SectionWriter writer;
    std::size_t committed = 0;  // payload bytes as of the last commit
    bool logged = false;        // present as of the last commit
    bool replace = false;       // reset since: commit a set, not an append
    bool changed = false;       // on changed_
  };
  using Iter = std::list<Entry>::iterator;

  Iter touch(Iter entry);

  std::uint64_t seed_;
  std::string provenance_;
  std::list<Entry> sections_;  // creation order
  std::unordered_map<std::string_view, Iter> index_;
  std::vector<Iter> changed_;  // since the last commit, first-change order
  // Logged sections removed since the last commit, with their sizes.
  std::vector<std::pair<std::string, std::size_t>> removed_;
  std::uint64_t committed_bytes_ = 0;
};

}  // namespace pitfalls::support::snapshot
