#include "ckpt/snapshot.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace asicpp::ckpt {

namespace {

constexpr std::uint32_t kMagic = 0x504b4341;  // "ACKP" little-endian
constexpr std::uint32_t kEndSentinel = 0x444e4545;  // "EEND"
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kCycleScheduler: return "cycle scheduler";
    case EngineKind::kCompiledSystem: return "compiled simulator";
    case EngineKind::kDataflow: return "dataflow scheduler";
    case EngineKind::kRecorder: return "recorder";
    case EngineKind::kBatched: return "batched simulator";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Hasher

Hasher& Hasher::u8(std::uint8_t v) {
  h_ = (h_ ^ v) * kFnvPrime;
  return *this;
}

Hasher& Hasher::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

Hasher& Hasher::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

Hasher& Hasher::f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

Hasher& Hasher::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) u8(static_cast<std::uint8_t>(c));
  return *this;
}

Hasher& Hasher::fmt(const fixpt::Format& f) {
  return i32(f.wl)
      .i32(f.iwl)
      .u8(f.is_signed ? 1 : 0)
      .u8(static_cast<std::uint8_t>(f.quant))
      .u8(static_cast<std::uint8_t>(f.ovf));
}

std::uint64_t hash_string(const std::string& s) {
  return Hasher{}.str(s).digest();
}

void restore_or_roll_back(std::istream& is, const std::function<void(std::ostream&)>& save,
                          const std::function<void(std::istream&)>& restore) {
  std::ostringstream backup;
  save(backup);
  try {
    restore(is);
  } catch (...) {
    std::istringstream b(backup.str());
    restore(b);
    throw;
  }
}

// ---------------------------------------------------------------------------
// Writer

void Writer::u8(std::uint8_t v) {
  os_->write(reinterpret_cast<const char*>(&v), 1);
}

void Writer::u32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os_->write(b, 4);
}

void Writer::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os_->write(b, 8);
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  os_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

void Writer::fmt(const fixpt::Format& f) {
  i32(f.wl);
  i32(f.iwl);
  u8(f.is_signed ? 1 : 0);
  u8(static_cast<std::uint8_t>(f.quant));
  u8(static_cast<std::uint8_t>(f.ovf));
}

void Writer::fixed(const fixpt::Fixed& v) {
  f64(v.value());
  u8(v.bound() ? 1 : 0);
  fmt(v.format());
}

void Writer::header(EngineKind kind, std::uint64_t content_hash,
                    std::uint64_t position) {
  u32(kMagic);
  u32(kFormatVersion);
  u8(static_cast<std::uint8_t>(kind));
  u64(content_hash);
  u64(position);
}

void Writer::end() { u32(kEndSentinel); }

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::istream& is, std::string subject)
    : is_(&is), subject_(std::move(subject)) {}

void Reader::fail(const std::string& code, const std::string& message,
                  const std::vector<std::string>& notes) const {
  diag::Diagnostic d;
  d.severity = diag::Severity::kError;
  d.code = code;
  d.component = subject_;
  d.message = message;
  d.notes = notes;
  throw SnapshotError(std::move(d));
}

void Reader::bytes(void* dst, std::size_t n) {
  is_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_->gcount()) != n || !*is_) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {"expected " + std::to_string(n) + " more byte(s); the stream ended " +
          "or failed mid-record"});
  }
}

std::uint8_t Reader::u8() {
  std::uint8_t v;
  bytes(&v, 1);
  return v;
}

std::uint32_t Reader::u32() {
  unsigned char b[4];
  bytes(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  unsigned char b[8];
  bytes(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  std::size_t n = count(1u << 20);
  std::string s(n, '\0');
  if (n != 0) bytes(s.data(), n);
  return s;
}

fixpt::Format Reader::fmt() {
  fixpt::Format f;
  f.wl = i32();
  f.iwl = i32();
  f.is_signed = u8() != 0;
  std::uint8_t q = u8();
  std::uint8_t o = u8();
  if (q > 1 || o > 1) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {"fixed-point format carries an out-of-range quantization or "
          "overflow discipline"});
  }
  f.quant = static_cast<fixpt::Quant>(q);
  f.ovf = static_cast<fixpt::Overflow>(o);
  return f;
}

fixpt::Fixed Reader::fixed() {
  double v = f64();
  bool bound = u8() != 0;
  fixpt::Format f = fmt();
  // A bound value was quantized into `f` when it was stored, so
  // re-quantizing on the way back in is the identity — the restored bit
  // pattern matches the saved one exactly.
  return bound ? fixpt::Fixed(v, f) : fixpt::Fixed(v);
}

std::uint64_t Reader::header(EngineKind expect_kind,
                             std::uint64_t expect_hash) {
  std::uint32_t magic = u32();
  if (magic != kMagic) {
    fail("CKPT-001", "stream is not an asicpp snapshot (bad magic)",
         {"expected magic 0x" + std::to_string(kMagic) + ", found 0x" +
          std::to_string(magic)});
  }
  std::uint32_t version = u32();
  if (version != kFormatVersion) {
    fail("CKPT-002",
         "snapshot format version skew: snapshot is v" +
             std::to_string(version) + ", this library reads v" +
             std::to_string(kFormatVersion),
         {"re-save the snapshot with a matching library build"});
  }
  std::uint8_t kind = u8();
  if (kind != static_cast<std::uint8_t>(expect_kind)) {
    std::string found =
        (kind >= 1 && kind <= 5)
            ? engine_kind_name(static_cast<EngineKind>(kind))
            : ("unknown kind " + std::to_string(kind));
    fail("CKPT-001",
         std::string("snapshot was written by a different engine kind: "
                     "expected ") +
             engine_kind_name(expect_kind) + ", found " + found);
  }
  std::uint64_t hash = u64();
  if (hash != expect_hash) {
    fail("CKPT-003",
         "snapshot content hash mismatch: the snapshot belongs to a "
         "different design or IR",
         {"snapshot hash " + std::to_string(hash) + ", this engine's hash " +
              std::to_string(expect_hash),
          "restoring it would silently corrupt simulation state"});
  }
  return u64();
}

void Reader::end() {
  std::uint32_t s = u32();
  if (s != kEndSentinel) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {"end sentinel missing: payload length does not match the format"});
  }
}

std::size_t Reader::count(std::size_t limit) {
  std::uint32_t n = u32();
  if (n > limit) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {"length prefix " + std::to_string(n) + " exceeds the plausible "
          "limit " + std::to_string(limit)});
  }
  return n;
}

std::size_t Reader::count(std::size_t limit, std::size_t want, const std::string& what) {
  const std::size_t n = count(limit);
  if (n != want) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {"snapshot carries " + std::to_string(n) + " " + what + " " + std::to_string(want)});
  }
  return n;
}

void Reader::name(const std::string& what, const std::string& want) {
  const std::string got = str();
  if (got != want) {
    fail("CKPT-004", "truncated or corrupt snapshot stream",
         {what + " record names '" + got + "' where '" + want + "' was expected"});
  }
}

}  // namespace asicpp::ckpt
