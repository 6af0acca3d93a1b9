#include "support/snapshot/snapshot.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <array>
#include <iterator>

#include <fcntl.h>     // open
#include <unistd.h>    // fsync, fdatasync, ftruncate, write

namespace pitfalls::support::snapshot {

namespace {

constexpr char kMagic[8] = {'P', 'I', 'T', 'F', 'S', 'N', 'A', 'P'};

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFU));
  out.push_back(static_cast<char>((v >> 8) & 0xFFU));
  out.push_back(static_cast<char>((v >> 16) & 0xFFU));
  out.push_back(static_cast<char>((v >> 24) & 0xFFU));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFFU));
}

/// Little-endian integer of `width` bytes at `pos`; the caller checks bounds.
std::uint64_t get_le(std::string_view bytes, std::size_t pos,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = width; i-- > 0;)
    v = (v << 8) | static_cast<unsigned char>(bytes[pos + i]);
  return v;
}

std::uint32_t read_u32(std::string_view bytes, std::size_t pos) {
  return static_cast<std::uint32_t>(get_le(bytes, pos, 4));
}

/// RAII FILE handle so every error path closes cleanly.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

const char* to_string(SnapshotFault fault) {
  switch (fault) {
    case SnapshotFault::io:
      return "io";
    case SnapshotFault::bad_magic:
      return "bad_magic";
    case SnapshotFault::bad_version:
      return "bad_version";
    case SnapshotFault::truncated:
      return "truncated";
    case SnapshotFault::bad_crc:
      return "bad_crc";
    case SnapshotFault::bad_section:
      return "bad_section";
  }
  return "unknown";
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (const char ch : bytes)
    c = kTable[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

std::string read_file_bytes(const std::string& path) {
  File in;
  in.f = std::fopen(path.c_str(), "rb");
  if (in.f == nullptr)
    throw SnapshotError(SnapshotFault::io, "cannot open " + path + " (" +
                                               std::strerror(errno) + ")");
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(buffer, 1, sizeof buffer, in.f);
    bytes.append(buffer, got);
    if (got < sizeof buffer) {
      if (std::ferror(in.f) != 0)
        throw SnapshotError(SnapshotFault::io, "read error on " + path);
      break;
    }
  }
  return bytes;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    File out;
    out.f = std::fopen(tmp.c_str(), "wb");
    if (out.f == nullptr)
      throw SnapshotError(SnapshotFault::io, "cannot create " + tmp + " (" +
                                                 std::strerror(errno) + ")");
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), out.f) != bytes.size()) {
      std::remove(tmp.c_str());
      throw SnapshotError(SnapshotFault::io, "short write to " + tmp);
    }
    // Flush userspace buffers, then force the kernel to persist them before
    // the rename publishes the file: rename-before-durable could surface an
    // empty/torn file after a power loss.
    if (std::fflush(out.f) != 0 || fsync(fileno(out.f)) != 0) {
      std::remove(tmp.c_str());
      throw SnapshotError(SnapshotFault::io, "cannot flush " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError(SnapshotFault::io,
                        "cannot rename " + tmp + " over " + path);
  }
}

void probe_writable(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "ab");
  if (f == nullptr)
    throw SnapshotError(SnapshotFault::io, "cannot create " + tmp + " (" +
                                               std::strerror(errno) + ")");
  std::fclose(f);
  // A stray .tmp from a killed writer is garbage either way; readers ignore
  // it and the next write recreates it, so removing it here is safe.
  std::remove(tmp.c_str());
}

// ---------------------------------------------------------------------------
// SectionWriter / SectionReader
// ---------------------------------------------------------------------------

void SectionWriter::u32(std::uint32_t v) { put_u32(bytes_, v); }

void SectionWriter::u64(std::uint64_t v) { put_u64(bytes_, v); }

void SectionWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void SectionWriter::str(std::string_view s) {
  PITFALLS_REQUIRE(s.size() <= 0xFFFFFFFFULL, "string too large for u32");
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s);
}

std::string_view SectionReader::take(std::size_t n) {
  if (n > bytes_.size() - pos_)
    throw SnapshotError(SnapshotFault::bad_section,
                        "section '" + name_ + "' ran dry (" +
                            std::to_string(n) + " bytes wanted, " +
                            std::to_string(remaining()) + " left)");
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t SectionReader::u8() {
  return static_cast<std::uint8_t>(take(1)[0]);
}

std::uint32_t SectionReader::u32() { return read_u32(take(4), 0); }

std::uint64_t SectionReader::u64() { return get_le(take(8), 0, 8); }

double SectionReader::f64() { return std::bit_cast<double>(u64()); }

std::string SectionReader::str() {
  const std::uint32_t len = u32();
  return std::string(take(len));
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::uint64_t seed, std::string provenance)
    : seed_(seed), provenance_(std::move(provenance)) {}

SnapshotWriter::Iter SnapshotWriter::touch(Iter entry) {
  if (!entry->changed) {
    entry->changed = true;
    changed_.push_back(entry);
  }
  return entry;
}

SectionWriter& SnapshotWriter::section(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return touch(it->second)->writer;
  sections_.push_back(Entry{name, SectionWriter{}});
  const Iter entry = std::prev(sections_.end());
  index_.emplace(entry->name, entry);
  return touch(entry)->writer;
}

SectionWriter& SnapshotWriter::reset_section(const std::string& name) {
  SectionWriter& writer = section(name);
  index_.find(name)->second->replace = true;
  writer.clear();
  return writer;
}

void SnapshotWriter::remove_section(const std::string& name) {
  const auto it = index_.find(name);
  if (it == index_.end()) return;
  const Iter entry = it->second;
  if (entry->changed)
    changed_.erase(std::find(changed_.begin(), changed_.end(), entry));
  if (entry->logged) removed_.emplace_back(entry->name, entry->committed);
  index_.erase(it);  // before the erase frees the name the key views
  sections_.erase(entry);
}

bool SnapshotWriter::has_section(const std::string& name) const {
  return index_.count(name) != 0;
}

const SectionWriter* SnapshotWriter::find_section(
    const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &it->second->writer;
}

void SnapshotWriter::apply(const LogChange& change) {
  const std::string name(change.name);
  switch (change.op) {
    case LogOp::append:
      section(name).raw(change.payload);
      return;
    case LogOp::set:
      reset_section(name).raw(change.payload);
      return;
    case LogOp::remove:
      remove_section(name);
      return;
  }
}

bool SnapshotWriter::encode_commit(std::string& out) {
  std::vector<LogChange> changes;
  // Removals first: a section removed and re-created since the last commit
  // is then replaced by its re-creation below.
  for (const auto& [name, committed] : removed_) {
    changes.push_back(LogChange{LogOp::remove, name, {}});
    committed_bytes_ -= log_change_size(name.size(), committed);
  }
  for (const Iter entry : changed_) {
    const std::string& bytes = entry->writer.bytes();
    if (entry->logged)
      committed_bytes_ -= log_change_size(entry->name.size(), entry->committed);
    committed_bytes_ += log_change_size(entry->name.size(), bytes.size());
    if (entry->replace || !entry->logged || bytes.size() < entry->committed) {
      changes.push_back(LogChange{LogOp::set, entry->name, bytes});
    } else if (bytes.size() > entry->committed) {
      changes.push_back(LogChange{
          LogOp::append, entry->name,
          std::string_view(bytes).substr(entry->committed)});
    }
    entry->committed = bytes.size();
    entry->logged = true;
    entry->replace = false;
    entry->changed = false;
  }
  if (!changes.empty()) append_log_commit(out, changes);
  changed_.clear();
  removed_.clear();
  return !changes.empty();
}

void SnapshotWriter::mark_committed() {
  committed_bytes_ = 0;
  for (Entry& entry : sections_) {
    entry.committed = entry.writer.size();
    entry.logged = true;
    entry.replace = false;
    entry.changed = false;
    committed_bytes_ += log_change_size(entry.name.size(), entry.committed);
  }
  changed_.clear();
  removed_.clear();
}

std::string SnapshotWriter::encode_log() const {
  std::string out = encode_log_header(seed_, provenance_);
  std::vector<LogChange> changes;
  changes.reserve(sections_.size());
  for (const Entry& entry : sections_)
    changes.push_back(LogChange{LogOp::set, entry.name, entry.writer.bytes()});
  if (!changes.empty()) append_log_commit(out, changes);
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint log (format version 2)
// ---------------------------------------------------------------------------

namespace {

/// Bounds-checked header cursor (distinct error kind from SectionReader:
/// running out of header bytes means the FILE is truncated).
struct HeaderCursor {
  std::string_view bytes;
  std::size_t pos = 0;

  std::string_view take(std::size_t n) {
    if (n > bytes.size() - pos)
      throw SnapshotError(SnapshotFault::truncated,
                          "snapshot header truncated");
    const std::string_view out = bytes.substr(pos, n);
    pos += n;
    return out;
  }
  std::uint32_t u32() { return read_u32(take(4), 0); }
  std::uint64_t u64() { return get_le(take(8), 0, 8); }
};

/// Decode a commit body into its changes; false when it is not exactly a
/// sequence of well-formed changes.
bool parse_commit(std::string_view body, std::vector<LogChange>& changes) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    if (body.size() - pos < log_change_size(0, 0)) return false;
    const auto op = static_cast<LogOp>(static_cast<unsigned char>(body[pos]));
    if (op != LogOp::append && op != LogOp::set && op != LogOp::remove)
      return false;
    const std::size_t name_size = read_u32(body, pos + 1);
    if (name_size > body.size() - pos - log_change_size(0, 0)) return false;
    const std::string_view name = body.substr(pos + 5, name_size);
    pos += 5 + name_size;
    const std::size_t payload_size = read_u32(body, pos);
    if (payload_size > body.size() - pos - 4 ||
        (op == LogOp::remove && payload_size != 0))
      return false;
    changes.push_back(LogChange{op, name, body.substr(pos + 4, payload_size)});
    pos += 4 + payload_size;
  }
  return !changes.empty();
}

}  // namespace

std::string encode_log_header(std::uint64_t seed,
                              std::string_view provenance) {
  PITFALLS_REQUIRE(provenance.size() <= 0xFFFFFFFFULL,
                   "provenance too large for u32");
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kLogFormatVersion);
  put_u64(out, seed);
  put_u32(out, static_cast<std::uint32_t>(provenance.size()));
  out.append(provenance);
  put_u32(out, crc32(out));
  return out;
}

std::size_t log_change_size(std::size_t name_size, std::size_t payload_size) {
  return 1 + 4 + name_size + 4 + payload_size;
}

void append_log_commit(std::string& out,
                       const std::vector<LogChange>& changes) {
  PITFALLS_REQUIRE(!changes.empty(), "empty log commit");
  std::size_t body = 0;
  for (const LogChange& change : changes) {
    PITFALLS_REQUIRE(change.payload.size() <= 0xFFFFFFFFULL &&
                         (change.op != LogOp::remove || change.payload.empty()),
                     "malformed log change");
    body += log_change_size(change.name.size(), change.payload.size());
  }
  PITFALLS_REQUIRE(body <= 0xFFFFFFFFULL, "log commit too large for u32");
  const std::size_t start = out.size();
  out.reserve(start + kLogCommitFrame + body);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u32(out, 0);  // crc placeholder, filled in below
  for (const LogChange& change : changes) {
    out.push_back(static_cast<char>(change.op));
    put_u32(out, static_cast<std::uint32_t>(change.name.size()));
    out.append(change.name);
    put_u32(out, static_cast<std::uint32_t>(change.payload.size()));
    out.append(change.payload);
  }
  const std::string_view framed(out);
  const std::uint32_t crc =
      crc32(framed.substr(start + kLogCommitFrame),
            crc32(framed.substr(start, 4)));
  for (std::size_t i = 0; i < 4; ++i)
    out[start + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFU);
}

LogScan scan_log(std::string_view bytes) {
  LogScan scan;
  HeaderCursor cur{bytes};
  const std::string_view magic = cur.take(sizeof kMagic);
  if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0)
    throw SnapshotError(SnapshotFault::bad_magic, "not a snapshot file");
  const std::uint32_t version = cur.u32();
  if (version != kLogFormatVersion)
    throw SnapshotError(SnapshotFault::bad_version,
                        "not a checkpoint log (version " +
                            std::to_string(version) + ")");
  scan.seed = cur.u64();
  scan.provenance = std::string(cur.take(cur.u32()));
  const std::size_t header_end = cur.pos;
  if (crc32(bytes.substr(0, header_end)) != cur.u32())
    throw SnapshotError(SnapshotFault::bad_crc, "log header checksum mismatch");

  std::size_t pos = cur.pos;
  scan.valid_size = pos;
  while (bytes.size() - pos >= kLogCommitFrame) {
    const std::size_t size = read_u32(bytes, pos);
    if (size > bytes.size() - pos - kLogCommitFrame)
      break;  // short commit (or a length no intact commit can have)
    const std::string_view body = bytes.substr(pos + kLogCommitFrame, size);
    if (crc32(body, crc32(bytes.substr(pos, 4))) != read_u32(bytes, pos + 4))
      break;
    LogCommit commit;
    if (!parse_commit(body, commit.changes))
      break;  // intact CRC over bytes no writer produces
    pos += kLogCommitFrame + size;
    commit.end = pos;
    scan.commits.push_back(std::move(commit));
    scan.valid_size = pos;
  }
  return scan;
}

void AppendFile::open(const std::string& path, std::uint64_t size) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0)
    throw SnapshotError(SnapshotFault::io, "cannot open " + path + " (" +
                                               std::strerror(errno) + ")");
  if (ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    close();
    throw SnapshotError(SnapshotFault::io, "cannot truncate " + path);
  }
}

void AppendFile::append(std::string_view bytes) {
  PITFALLS_REQUIRE(is_open(), "append on a closed log file");
  while (!bytes.empty()) {
    const ssize_t wrote = ::write(fd_, bytes.data(), bytes.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw SnapshotError(SnapshotFault::io,
                          std::string("log append failed (") +
                              std::strerror(errno) + ")");
    }
    bytes.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

void AppendFile::sync() {
  PITFALLS_REQUIRE(is_open(), "sync on a closed log file");
  if (fdatasync(fd_) != 0)
    throw SnapshotError(SnapshotFault::io, "cannot sync the log file");
}

void AppendFile::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace pitfalls::support::snapshot
