// Content-addressed, stage-keyed artifact store.
//
// Every compile stage that produces something expensive to rebuild — today
// the JIT engine's emitted source and compiled shared object, tomorrow any
// pipeline stage with a cacheable product (the STA backend's timing
// database, synthesized netlists) — shares one on-disk store. An artifact
// is addressed by
//
//   <dir>/<stage>-<hex16(key)>.<ext>
//
// where `stage` names the producing pipeline stage ("jit", ...), `key` is
// an FNV-1a 64-bit content hash of everything that determines the bytes
// (computed by the producer with ckpt::Hasher), and `ext` distinguishes
// multiple products of one stage ("cpp" and "so" share a key). Content
// addressing makes the store safe to share between concurrent processes
// and daemon sessions: two producers racing on the same key write
// identical bytes, and every write is a temp file + atomic rename, so a
// reader never sees a torn artifact and the last rename wins benignly.
//
// The directory resolves through an env chain so one knob relocates every
// consumer (tests, CI, the service daemon):
//
//   explicit dir > $ASICPP_STORE_DIR > $XDG_CACHE_HOME/asicpp-store
//   > $HOME/.cache/asicpp-store > /tmp/asicpp-store
//
// `kStoreRevision` is the store's layout/keying revision. Producers fold
// it into their keys (a revision bump invalidates old entries instead of
// misloading them) and asicpp-fuzz folds it into its journal fingerprint
// (a campaign journal written against a different store revision refuses
// to resume).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace asicpp::pipeline {

/// Artifact-store layout/keying revision. Participates in every producer's
/// content key and in the fuzz journal fingerprint.
inline constexpr std::uint32_t kStoreRevision = 1;

class ArtifactStore {
 public:
  /// Resolve the directory (empty = env chain) and create it.
  explicit ArtifactStore(const std::string& dir = "");

  const std::string& dir() const { return dir_; }

  /// The env-chain resolution above, without touching the filesystem.
  static std::string resolve_dir(const std::string& explicit_dir);
  /// 16-digit lowercase hex of an FNV-1a key (the filename form).
  static std::string hex16(std::uint64_t key);

  /// <dir>/<stage>-<hex16(key)>.<ext>
  std::string path(const std::string& stage, std::uint64_t key,
                   const std::string& ext) const;
  bool contains(const std::string& stage, std::uint64_t key,
                const std::string& ext) const;
  /// Read the whole artifact; false when absent or unreadable.
  bool fetch(const std::string& stage, std::uint64_t key,
             const std::string& ext, std::string* content) const;
  /// Atomic write: temp file + rename. Concurrent writers of one key race
  /// benignly (identical content, last rename wins).
  bool put(const std::string& stage, std::uint64_t key, const std::string& ext,
           const std::string& content) const;
  /// Atomic write through an external producer (e.g. a compiler): `produce`
  /// receives a temp path to fill; on success the temp is renamed into
  /// place, on failure it is removed. Returns produce's verdict.
  bool put_via(const std::string& stage, std::uint64_t key,
               const std::string& ext,
               const std::function<bool(const std::string& tmp_path)>&
                   produce) const;
  /// Drop a (stale, corrupt) entry; true when a file was removed.
  bool discard(const std::string& stage, std::uint64_t key,
               const std::string& ext) const;

 private:
  std::string dir_;
};

}  // namespace asicpp::pipeline
