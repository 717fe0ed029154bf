#include "pipeline/artifact.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace asicpp::pipeline {

namespace {

void make_dirs(const std::string& path) {
  std::string cur;
  std::size_t i = 0;
  while (i < path.size()) {
    const std::size_t next = path.find('/', i + 1);
    cur = path.substr(0, next == std::string::npos ? path.size() : next);
    if (!cur.empty() && cur != "/") ::mkdir(cur.c_str(), 0755);
    if (next == std::string::npos) break;
    i = next;
  }
}

const char* nonempty_env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

}  // namespace

std::string ArtifactStore::resolve_dir(const std::string& explicit_dir) {
  if (!explicit_dir.empty()) return explicit_dir;
  if (const char* e = nonempty_env("ASICPP_STORE_DIR")) return e;
  if (const char* x = nonempty_env("XDG_CACHE_HOME"))
    return std::string(x) + "/asicpp-store";
  if (const char* h = nonempty_env("HOME"))
    return std::string(h) + "/.cache/asicpp-store";
  return "/tmp/asicpp-store";
}

std::string ArtifactStore::hex16(std::uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

ArtifactStore::ArtifactStore(const std::string& dir)
    : dir_(resolve_dir(dir)) {
  make_dirs(dir_);
}

std::string ArtifactStore::path(const std::string& stage, std::uint64_t key,
                                const std::string& ext) const {
  return dir_ + "/" + stage + "-" + hex16(key) + "." + ext;
}

bool ArtifactStore::contains(const std::string& stage, std::uint64_t key,
                             const std::string& ext) const {
  struct stat st;
  return ::stat(path(stage, key, ext).c_str(), &st) == 0;
}

bool ArtifactStore::fetch(const std::string& stage, std::uint64_t key,
                          const std::string& ext, std::string* content) const {
  std::ifstream is(path(stage, key, ext), std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  if (!is.good() && !is.eof()) return false;
  *content = ss.str();
  return true;
}

bool ArtifactStore::put(const std::string& stage, std::uint64_t key,
                        const std::string& ext,
                        const std::string& content) const {
  return put_via(stage, key, ext, [&](const std::string& tmp) {
    std::ofstream os(tmp, std::ios::binary);
    if (!os) return false;
    os << content;
    os.flush();
    return os.good();
  });
}

bool ArtifactStore::put_via(
    const std::string& stage, std::uint64_t key, const std::string& ext,
    const std::function<bool(const std::string& tmp_path)>& produce) const {
  const std::string dst = path(stage, key, ext);
  const std::string tmp = dst + ".tmp." + std::to_string(getpid());
  if (!produce(tmp)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), dst.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool ArtifactStore::discard(const std::string& stage, std::uint64_t key,
                            const std::string& ext) const {
  return std::remove(path(stage, key, ext).c_str()) == 0;
}

}  // namespace asicpp::pipeline
