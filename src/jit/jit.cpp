#include "jit/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <system_error>
#include <utility>

#include "ckpt/snapshot.h"
#include "par/pool.h"
#include "pipeline/artifact.h"

extern char** environ;

namespace asicpp::jit {

using CS = sim::CompiledSystem;
using sim::JitState;
using sim::kJitAbi;

// ---------------------------------------------------------------------------
// External commands: posix_spawnp from an argv, stdout and stderr on one
// pipe per command, every running command's pipe polled from this thread.
// A process-wide semaphore holds every caller together to
// par::Pool::hardware_lanes() running commands.

std::string Command::text() const {
  std::string t;
  for (const std::string& a : argv) t += (t.empty() ? "" : " ") + a;
  return t;
}

namespace {

struct Running {
  Command* cmd;
  pid_t pid;
  int fd;  ///< read end of the command's output pipe
};

bool start(Command& c, Running* r) {
  if (c.argv.empty()) {
    c.start_error = EINVAL;
    return false;
  }
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    c.start_error = errno;
    return false;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 2);
  std::vector<char*> argv;
  for (std::string& a : c.argv) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawnp(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    c.start_error = rc;
    return false;
  }
  *r = Running{&c, pid, fds[0]};
  return true;
}

// Read what is available; at end of output, reap the command. True when
// it is done.
bool drain(Running& r) {
  char buf[4096];
  const ssize_t n = ::read(r.fd, buf, sizeof buf);
  if (n > 0) {
    r.cmd->output.append(buf, static_cast<std::size_t>(n));
    return false;
  }
  if (n < 0 && errno == EINTR) return false;
  ::close(r.fd);
  int st = 0;
  while (::waitpid(r.pid, &st, 0) < 0) {
    if (errno == EINTR) continue;
    st = -1;  // not reaped here (SIGCHLD ignored): never report success
    break;
  }
  r.cmd->status = st;
  return true;
}

/// The process's running commands, across every caller. Never destroyed:
/// builds still running at exit use it until they are joined.
std::counting_semaphore<>& host_lanes() {
  static auto* lanes = new std::counting_semaphore<>(par::Pool::hardware_lanes());
  return *lanes;
}

}  // namespace

void run_commands(std::vector<Command>& cmds, unsigned lanes) {
  lanes = std::max(lanes, 1u);
  std::counting_semaphore<>& host = host_lanes();
  std::vector<Running> live;
  std::vector<pollfd> fds;
  std::size_t next = 0;
  while (next < cmds.size() || !live.empty()) {
    // Block for a process lane only while none of ours runs: a command of
    // ours must keep being drained, or a full pipe would stall it forever.
    while (live.size() < lanes && next < cmds.size()) {
      if (!live.empty() && !host.try_acquire()) break;
      if (live.empty()) host.acquire();
      Running r;
      if (start(cmds[next++], &r))
        live.push_back(r);
      else
        host.release();
    }
    if (live.empty()) continue;
    fds.clear();
    for (const Running& r : live) fds.push_back(pollfd{r.fd, POLLIN, 0});
    // Commands held back for a process lane retry every 20 ms.
    const int timeout = next < cmds.size() && live.size() < lanes ? 20 : -1;
    if (::poll(fds.data(), fds.size(), timeout) < 0 && errno != EINTR) {
      // Not expected; block on each command in turn instead.
      for (pollfd& p : fds) p.revents = POLLIN;
    }
    for (std::size_t i = live.size(); i-- > 0;)
      if (fds[i].revents != 0 && drain(live[i])) {
        live.erase(live.begin() + static_cast<long>(i));
        host.release();
      }
  }
}

int run_command(const std::vector<std::string>& argv, std::string* out) {
  std::vector<Command> cmds(1);
  cmds[0].argv = argv;
  run_commands(cmds, 1);
  *out += cmds[0].output;
  return cmds[0].status;
}

std::string cache_dir(const JitOptions& jopts) {
  return pipeline::ArtifactStore::resolve_dir(jopts.cache_dir);
}

// ---------------------------------------------------------------------------
// Build commands and the artifact key. The store is the shared content-
// addressed one (pipeline/artifact.h), stage "jit"; the key folds in the
// store revision, the jit format + ABI revisions, the commands and every
// part's text, so any skew invalidates old entries instead of misloading
// them.

namespace {

std::vector<std::string> driver(const JitOptions& jopts) {
  std::vector<std::string> argv{jopts.cxx};
  std::istringstream flags(jopts.flags);
  for (std::string f; flags >> f;) argv.push_back(f);
  return argv;
}

std::string part_name(std::size_t k) { return "part" + std::to_string(k); }

/// The command stages that build `nparts` parts in `dir` into `out`: the
/// part compiles, which run concurrently, then the link. A one-part unit
/// is one command that compiles and links `unit` (its one-file form).
std::vector<std::vector<Command>> build_stages(const JitOptions& jopts,
                                               std::size_t nparts,
                                               const std::string& dir,
                                               const std::string& unit,
                                               const std::string& out) {
  const auto command = [&](std::initializer_list<std::string> args) {
    Command c;
    c.argv = driver(jopts);
    c.argv.insert(c.argv.end(), args);
    return c;
  };
  if (nparts == 1) return {{command({"-shared", "-fPIC", "-o", out, unit})}};
  std::vector<Command> compiles;
  Command link = command({"-shared", "-o", out});
  for (std::size_t k = 0; k < nparts; ++k) {
    const std::string stem = dir + "/" + part_name(k);
    compiles.push_back(command({"-fPIC", "-c", "-o", stem + ".o", stem + ".cpp"}));
    link.argv.push_back(stem + ".o");
  }
  return {std::move(compiles), {std::move(link)}};
}

}  // namespace

std::uint64_t content_key(const sim::UnitParts& unit, const JitOptions& jopts) {
  ckpt::Hasher h;
  h.str("asicpp-jit")
      .u32(pipeline::kStoreRevision)
      .u32(kJitFormatVersion)
      .u32(kJitAbi);
  // The commands with placeholder paths: their shape, not where a given
  // build writes its temporaries.
  for (const auto& stage : build_stages(jopts, unit.bodies.size(), "{dir}", "{unit}", "{out}"))
    for (const Command& c : stage) h.str(c.text());
  h.str(unit.prelude).u32(static_cast<std::uint32_t>(unit.bodies.size()));
  for (const std::string& body : unit.bodies) h.str(body);
  return h.digest();
}

// ---------------------------------------------------------------------------
// Load, build and compile.

struct Kernel {
  std::string path;
  void* handle = nullptr;
  int (*cycle)(JitState*, int) = nullptr;

  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel() {
    if (handle != nullptr) dlclose(handle);
  }
};

struct Build {
  // Written by the build thread before `done` is set; read-only after.
  std::shared_ptr<const Kernel> kernel;  ///< null when the build failed
  std::vector<diag::Diagnostic> findings;
  double compile_seconds = 0.0;
  /// Set when the build ended. Owned apart from the Build, so the build
  /// thread drops its Build (and the object with it) before setting it:
  /// the last engine holding the object unloads it.
  std::shared_ptr<std::atomic<bool>> done = std::make_shared<std::atomic<bool>>(false);
};

namespace {

/// dlopen `path` and check that it is an artifact of this ABI revision and
/// of the design whose IR hashes to `ir_hash`. Null with `why` on failure.
std::shared_ptr<const Kernel> load(const std::string& path, std::uint64_t ir_hash,
                                   std::string* why) {
  auto k = std::make_shared<Kernel>();
  k->handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (k->handle == nullptr) {
    const char* e = dlerror();
    *why = e != nullptr ? e : "dlopen failed";
    return nullptr;
  }
  const auto sym = [&](const char* name) { return dlsym(k->handle, name); };
  auto* abi = reinterpret_cast<unsigned (*)()>(sym("asicpp_jit_abi"));
  auto* hash =
      reinterpret_cast<unsigned long long (*)()>(sym("asicpp_jit_ir_hash"));
  k->cycle = reinterpret_cast<int (*)(JitState*, int)>(sym("asicpp_jit_cycle"));
  if (abi == nullptr || hash == nullptr || k->cycle == nullptr) {
    *why = "missing entry point (not an asicpp jit artifact?)";
    return nullptr;
  }
  if (abi() != kJitAbi) {
    *why = "ABI revision " + std::to_string(abi()) + ", this library expects " +
           std::to_string(kJitAbi);
    return nullptr;
  }
  if (hash() != ir_hash) {
    *why = "IR content hash mismatch (artifact belongs to a different design)";
    return nullptr;
  }
  k->path = path;
  return k;
}

diag::Diagnostic& finding(Build& b, const char* code, std::string message) {
  b.findings.push_back(diag::Diagnostic{diag::Severity::kWarning, code, "jit engine",
                                        diag::kNoCycle, std::move(message), {}});
  return b.findings.back();
}

/// The background half of a cold compile: write the unit, run the
/// compilers, rename the object into the store and load it. Runs on a
/// thread of its own and reports into `b` only.
void run_build(Build& b, const sim::UnitParts& unit, const JitOptions& jopts,
               const pipeline::ArtifactStore& store, std::uint64_t key,
               std::uint64_t ir_hash) {
  const std::size_t nparts = unit.bodies.size();
  const std::string so = store.path("jit", key, "so");
  const std::string cpp = store.path("jit", key, "cpp");
  const auto cannot_write = [&](const std::string& what) {
    finding(b, "JIT-002", "cannot write " + what + "; falling back to interpreted tape");
  };
  std::string source = unit.prelude;
  for (const std::string& body : unit.bodies) source += body;
  if (!store.put("jit", key, "cpp", source)) {
    cannot_write(cpp);
    return;
  }

  // A split unit's parts and objects go to a private directory beside the
  // store's entries, removed on every path out of here.
  struct PrivateDir {
    std::string path;
    ~PrivateDir() {
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  } tmpdir;
  if (nparts > 1) {
    std::string templ = store.path("jit", key, "parts.XXXXXX");
    if (::mkdtemp(templ.data()) == nullptr) {
      cannot_write(templ);
      return;
    }
    tmpdir.path = templ;
    for (std::size_t k = 0; k < nparts; ++k) {
      const std::string path = tmpdir.path + "/" + part_name(k) + ".cpp";
      std::ofstream os(path, std::ios::binary);
      os << unit.prelude << unit.bodies[k];
      os.flush();
      if (!os.good()) {
        cannot_write(path);
        return;
      }
    }
  }

  Command failed;
  bool linking = false;
  const auto t0 = std::chrono::steady_clock::now();
  const bool built = store.put_via("jit", key, "so", [&](const std::string& tmp) {
    auto stages = build_stages(jopts, nparts, tmpdir.path, cpp, tmp);
    for (std::size_t s = 0; s < stages.size(); ++s) {
      run_commands(stages[s], par::Pool::hardware_lanes());
      for (Command& c : stages[s]) {
        if (c.ok()) continue;
        failed = std::move(c);
        linking = s > 0;
        return false;
      }
    }
    return true;
  });
  b.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!built) {
    if (failed.start_error != 0) {
      finding(b, "JIT-001",
              "host toolchain missing ('" + jopts.cxx +
                  "': " + std::generic_category().message(failed.start_error) +
                  "); falling back to interpreted tape");
    } else if (failed.argv.empty()) {
      cannot_write(so);  // every command succeeded; the rename did not
    } else {
      auto& d = finding(b, "JIT-002",
                        std::string(linking ? "generated parts failed to link"
                                            : "generated source failed to compile") +
                            "; falling back to interpreted tape");
      d.note("command: " + failed.text());
      const std::string& out = failed.output;
      if (!out.empty()) d.note(out.size() > 2000 ? out.substr(0, 2000) + "..." : out);
    }
    return;
  }

  std::string why;
  b.kernel = load(so, ir_hash, &why);
  if (b.kernel == nullptr)
    finding(b, "JIT-003",
            "compiled artifact failed to load (" + why + "); falling back to interpreted tape");
}

/// Builds in flight, by store directory and content key. Never destroyed:
/// builds still running at exit unregister here before they are joined.
struct Flights {
  std::mutex mu;
  std::map<std::pair<std::string, std::uint64_t>, std::shared_ptr<Build>> running;
};

Flights& flights() {
  static auto* f = new Flights;
  return *f;
}

/// The build of `key` in `store`: the one in flight, else (when
/// `check_store` and the store holds the artifact) null, else a new one
/// started on `unit`, which it moves from. The store is checked under the
/// registry's lock, which a build leaves only after its rename, so a build
/// that lands meanwhile is found one way or the other.
std::shared_ptr<Build> flight(const pipeline::ArtifactStore& store, std::uint64_t key,
                              bool check_store, sim::UnitParts& unit,
                              const JitOptions& jopts, std::uint64_t ir_hash) {
  Flights& fl = flights();
  const std::pair<std::string, std::uint64_t> id{store.dir(), key};
  const std::lock_guard<std::mutex> lk(fl.mu);
  if (const auto it = fl.running.find(id); it != fl.running.end()) return it->second;
  if (check_store && store.contains("jit", key, "so")) return nullptr;
  auto b = std::make_shared<Build>();
  const auto failed = [](Build& build, const std::exception& ex) {
    finding(build, "JIT-002",
            std::string("build failed: ") + ex.what() + "; falling back to interpreted tape");
  };
  try {
    par::spawn_background([b, id, store, key, ir_hash, jopts, unit = std::move(unit),
                           failed]() mutable {
      try {
        run_build(*b, unit, jopts, store, key, ir_hash);
      } catch (const std::exception& ex) {
        failed(*b, ex);
      }
      {
        Flights& fl = flights();
        const std::lock_guard<std::mutex> lk(fl.mu);
        fl.running.erase(id);
      }
      // An engine that sees `done` must not find this thread still holding
      // the object: a store entry rewritten in place would then dlopen as
      // the old mapping.
      const std::shared_ptr<std::atomic<bool>> done = b->done;
      b.reset();
      done->store(true, std::memory_order_release);
      done->notify_all();
    });
  } catch (const std::exception& ex) {  // no thread: a build that failed at once
    failed(*b, ex);
    b->done->store(true);
    return b;
  }
  fl.running.emplace(id, b);
  return b;
}

}  // namespace

std::string JitSystem::artifact_path() const {
  return kernel_ != nullptr ? kernel_->path : std::string();
}

JitSystem JitSystem::compile(const sched::CycleScheduler& sched,
                             const opt::PassOptions& passes,
                             const JitOptions& jopts) {
  JitSystem js(CS::compile(sched, passes));
  // One origin for all of this engine's diagnostics, fallback included.
  js.cs_.core_.origin = "jit engine";
  js.sink_ = jopts.diagnostics;
  js.hold_swap_ = jopts.hold_swap;

  sim::UnitParts unit = js.cs_.emit_parts();
  const std::uint64_t key = content_key(unit, jopts);
  const pipeline::ArtifactStore store(jopts.cache_dir);
  const std::uint64_t ir_hash = js.cs_.state_hash();

  js.build_ = flight(store, key, !jopts.force_recompile, unit, jopts, ir_hash);
  if (js.build_ == nullptr) {
    // A stored artifact: a build that has already ended.
    const std::string so = store.path("jit", key, "so");
    std::string why;
    if (std::shared_ptr<const Kernel> k = load(so, ir_hash, &why)) {
      js.build_ = std::make_shared<Build>();
      js.build_->kernel = std::move(k);
      js.build_->done->store(true);
      js.from_cache_ = true;
    } else {
      diag::DiagEngine& de = js.sink_ != nullptr ? *js.sink_ : js.cs_.diagnostics();
      de.warning("JIT-004", "jit engine",
                 "discarding stale or corrupt cache entry " + so + ": " + why);
      store.discard("jit", key, "so");
      js.build_ = flight(store, key, false, unit, jopts, ir_hash);
    }
  }
  if (!jopts.tiered) js.build_->done->wait(false, std::memory_order_acquire);
  js.take_build();
  return js;
}

void JitSystem::take_build() {
  const Build& b = *build_;
  if (!b.done->load(std::memory_order_acquire)) return;
  if (b.kernel != nullptr && cs_.cycles_ < hold_swap_) return;
  diag::DiagEngine& de = sink_ != nullptr ? *sink_ : cs_.diagnostics();
  for (const diag::Diagnostic& d : b.findings) de.report(d);
  compile_seconds_ = b.compile_seconds;
  if (b.kernel != nullptr) {
    kernel_ = b.kernel;
    fn_cycle_ = kernel_->cycle;
    native_ = true;
    swap_cycle_ = cs_.cycles_;
  }
  build_.reset();
}

// ---------------------------------------------------------------------------
// Runtime.

JitState JitSystem::make_state() {
  JitState st;
  st.S = cs_.slots_.data();
  st.T = cs_.tok_.data();
  st.state = cs_.state_.data();
  st.fired = cs_.fired_.data();
  st.sel = cs_.sel_.data();
  st.pending = cs_.pending_.data();
  st.host = this;
  st.fire_untimed = &JitSystem::fire_untimed_cb;
  return st;
}

int JitSystem::fire_untimed_cb(void* host, int comp) {
  auto* self = static_cast<JitSystem*>(host);
  if (self->untimed_fault_ != nullptr) return -1;
  try {
    self->cs_.invoke_untimed(static_cast<std::size_t>(comp), 0);
    return 1;
  } catch (...) {
    self->untimed_fault_ = std::current_exception();
    return -1;
  }
}

// Phases 0-3 run in the emitted unit; the walk decision and SCHED-001/002
// are the shared phase-2 core's (sched/phase2.h).
void JitSystem::native_cycle() {
  cs_.begin_cycle();
  JitState st = make_state();
  const sim::Image& img = *cs_.img_;
  sched::Phase2& core = cs_.core_;
  const bool walk = core.walks(img.level_offsets, img.sched_reason, cs_.cycles_);
  const int ret = fn_cycle_(&st, walk ? 1 : 0);

  if (untimed_fault_ != nullptr) std::rethrow_exception(std::exchange(untimed_fault_, nullptr));
  if (st.deadlock == 2) cs_.unknown_opcode(static_cast<std::size_t>(st.dl_comp), st.dl_op, 0);
  if (ret < 0 || st.deadlock == 1) core.deadlock(cs_.postmortem());

  // The unit returns the sweeps it made beyond the first.
  core.retry_passes += static_cast<std::uint64_t>(ret);
  if (walk) core.walk_outcome(ret == 0, cs_.cycles_);
  for (const int f : cs_.fired_) core.firings += f != 0 ? 1 : 0;
  ++cs_.cycles_;
}

void JitSystem::cycle() {
  if (build_ != nullptr) take_build();
  if (native_)
    native_cycle();
  else
    cs_.cycle();
}

RunResult JitSystem::run(const RunOptions& opts) {
  // Profiled runs stay on the tape engine, which implements the full
  // unified contract (per-component timing needs the instrumented
  // interpreter loop); every other run steps through cycle(), so a build
  // that lands mid-run is taken over at the next cycle boundary.
  if (opts.profile) return cs_.run(opts);
  return cs_.run_steps(opts, [this] { cycle(); });
}

}  // namespace asicpp::jit
