// Checkpoint/restore state snapshots.
//
// The paper's design flow leans on long compiled-simulation runs (section
// 5); losing a multi-hour run to a crash, a hang, or a machine reboot is
// exactly the kind of tooling failure a *programming* environment is
// supposed to prevent. This module is the serialization substrate every
// engine's `save_state` / `restore_state` builds on: a versioned binary
// snapshot format carrying
//
//   magic        — "ACKP", so a snapshot is recognizable (and anything
//                  else is rejected up front instead of misparsed);
//   version      — the format revision; readers reject snapshots written
//                  by an incompatible library;
//   engine kind  — which engine wrote the state (a compiled-tape snapshot
//                  must not restore into the interpreted scheduler);
//   content hash — a structural hash of the spec/IR the state belongs to
//                  (net names, register formats, tape instructions), so a
//                  snapshot of design A cannot silently corrupt design B;
//   position     — the cycle count (cycle engines), firing count
//                  (dataflow) or recorded-cycle count (recorder);
//   payload      — engine-specific state, closed by an end sentinel that
//                  catches truncated or over-read streams.
//
// All integers are little-endian fixed width; doubles are IEEE-754 bit
// patterns. A bad snapshot degrades gracefully: restore_state stages the
// whole payload before touching engine state and throws a structured
// SnapshotError, leaving the engine exactly as it was.
//
// Stable code registry (documented in DESIGN.md section 10):
//   CKPT-001 not a snapshot (bad magic) / wrong engine kind
//   CKPT-002 snapshot format version skew
//   CKPT-003 content hash mismatch (snapshot of a different design)
//   CKPT-004 truncated or corrupt snapshot stream
//   CKPT-005 lane binding mismatch (per-lane batched snapshot restored
//            into a different lane index)
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "fixpt/fixed.h"

namespace asicpp::ckpt {

/// Snapshot format revision. Bump on any layout change; readers reject
/// other versions with CKPT-002.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Which engine wrote the snapshot. Part of the header: restoring a
/// snapshot into a different engine kind is a CKPT-001 error.
enum class EngineKind : std::uint8_t {
  kCycleScheduler = 1,  ///< interpreted sched::CycleScheduler
  kCompiledSystem = 2,  ///< sim::CompiledSystem flat-tape simulator
  kDataflow = 3,        ///< df::DynamicScheduler
  kRecorder = 4,        ///< sim::Recorder trace position
  kBatched = 5,         ///< batch::BatchedSystem, one lane per snapshot
};

const char* engine_kind_name(EngineKind k);

/// Exception carrying the structured CKPT diagnostic of a failed restore.
struct SnapshotError : asicpp::Error {
  explicit SnapshotError(diag::Diagnostic d) : asicpp::Error(std::move(d)) {}
};

/// FNV-1a 64-bit running hash — the content-hash primitive. Deterministic
/// across platforms; engines feed it their structural identity (net names,
/// register formats, tape instructions) so a snapshot binds to one design.
class Hasher {
 public:
  Hasher& u8(std::uint8_t v);
  Hasher& u32(std::uint32_t v);
  Hasher& u64(std::uint64_t v);
  Hasher& i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  Hasher& f64(double v);
  Hasher& str(const std::string& s);
  Hasher& fmt(const fixpt::Format& f);

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;  // FNV offset basis
};

/// Convenience: hash one string (e.g. a canonical spec text) to a salt.
std::uint64_t hash_string(const std::string& s);

/// The transactional restore of every engine: snapshot the current state
/// with `save`, then `restore` from `is`; on any failure restore that
/// snapshot and rethrow, so a bad stream leaves the engine untouched. The
/// rollback snapshot is self-produced against the same structure, so
/// re-applying it cannot fail.
void restore_or_roll_back(std::istream& is, const std::function<void(std::ostream&)>& save,
                          const std::function<void(std::istream&)>& restore);

/// Little-endian binary writer over a std::ostream.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(&os) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void str(const std::string& s);  ///< u32 length + bytes
  void fmt(const fixpt::Format& f);
  void fixed(const fixpt::Fixed& v);  ///< value + bound flag + format

  /// Snapshot header: magic, version, engine kind, content hash, position.
  void header(EngineKind kind, std::uint64_t content_hash,
              std::uint64_t position);
  /// Closing sentinel; Reader::end() verifies it.
  void end();

 private:
  std::ostream* os_;
};

/// Little-endian binary reader over a std::istream. Every read throws
/// SnapshotError CKPT-004 on a short or failed stream, so callers never
/// consume garbage.
class Reader {
 public:
  /// `subject` names the restoring engine in diagnostics, e.g.
  /// "cycle scheduler".
  Reader(std::istream& is, std::string subject);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  fixpt::Format fmt();
  fixpt::Fixed fixed();

  /// Read and validate the header against the restoring engine's identity.
  /// Throws SnapshotError: CKPT-001 (magic / engine kind), CKPT-002
  /// (version), CKPT-003 (content hash). Returns the stored position.
  std::uint64_t header(EngineKind expect_kind, std::uint64_t expect_hash);

  /// Verify the closing sentinel (CKPT-004 when absent or wrong).
  void end();

  /// Read `n` as a count and verify it is at most `limit` (a corrupt
  /// length prefix must not drive a multi-gigabyte allocation).
  std::size_t count(std::size_t limit);
  /// count(limit) that must equal `want`: CKPT-004 "snapshot carries <n>
  /// <what> <want>" otherwise, e.g. what = "net(s), this system has".
  std::size_t count(std::size_t limit, std::size_t want, const std::string& what);
  /// str() that must equal `want`: CKPT-004 "<what> record names ..."
  /// otherwise.
  void name(const std::string& what, const std::string& want);

  [[noreturn]] void fail(const std::string& code, const std::string& message,
                         const std::vector<std::string>& notes = {}) const;

 private:
  void bytes(void* dst, std::size_t n);

  std::istream* is_;
  std::string subject_;
};

}  // namespace asicpp::ckpt
