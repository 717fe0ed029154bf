#include "jit/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <initializer_list>
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

}  // namespace

void run_commands(std::vector<Command>& cmds, unsigned lanes) {
  std::vector<Running> live;
  std::vector<pollfd> fds;
  std::size_t next = 0;
  while (next < cmds.size() || !live.empty()) {
    for (Running r; live.size() < std::max(lanes, 1u) && next < cmds.size();)
      if (start(cmds[next++], &r)) live.push_back(r);
    if (live.empty()) continue;
    fds.clear();
    for (const Running& r : live) fds.push_back(pollfd{r.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0 && errno != EINTR) {
      // Not expected; block on each command in turn instead.
      for (pollfd& p : fds) p.revents = POLLIN;
    }
    for (std::size_t i = live.size(); i-- > 0;)
      if (fds[i].revents != 0 && drain(live[i])) live.erase(live.begin() + static_cast<long>(i));
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
// Compile + load.

bool JitSystem::load(const std::string& path, std::string* why) {
  void* h = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* e = dlerror();
    *why = e != nullptr ? e : "dlopen failed";
    return false;
  }
  std::shared_ptr<void> handle(h, [](void* p) { dlclose(p); });
  const auto sym = [&](const char* name) { return dlsym(h, name); };
  auto* abi = reinterpret_cast<unsigned (*)()>(sym("asicpp_jit_abi"));
  auto* hash =
      reinterpret_cast<unsigned long long (*)()>(sym("asicpp_jit_ir_hash"));
  auto* cyc = reinterpret_cast<int (*)(JitState*, int)>(sym("asicpp_jit_cycle"));
  auto* begin =
      reinterpret_cast<void (*)(JitState*)>(sym("asicpp_jit_begin"));
  auto* try_slot =
      reinterpret_cast<int (*)(JitState*, int)>(sym("asicpp_jit_try_slot"));
  auto* finish = reinterpret_cast<int (*)(JitState*)>(sym("asicpp_jit_finish"));
  if (abi == nullptr || hash == nullptr || cyc == nullptr || begin == nullptr ||
      try_slot == nullptr || finish == nullptr) {
    *why = "missing entry point (not an asicpp jit artifact?)";
    return false;
  }
  if (abi() != kJitAbi) {
    *why = "ABI revision " + std::to_string(abi()) + ", this library expects " +
           std::to_string(kJitAbi);
    return false;
  }
  if (hash() != cs_.state_hash()) {
    *why = "IR content hash mismatch (artifact belongs to a different design)";
    return false;
  }
  so_ = std::move(handle);
  fn_cycle_ = cyc;
  fn_begin_ = begin;
  fn_try_slot_ = try_slot;
  fn_finish_ = finish;
  artifact_path_ = path;
  return true;
}

JitSystem JitSystem::compile(const sched::CycleScheduler& sched,
                             const opt::PassOptions& passes,
                             const JitOptions& jopts) {
  JitSystem js(CS::compile(sched, passes));
  // One origin for all of this engine's diagnostics, fallback included.
  js.cs_.core_.origin = "jit engine";

  diag::DiagEngine& de =
      jopts.diagnostics != nullptr ? *jopts.diagnostics : js.cs_.diagnostics();

  const sim::UnitParts unit = js.cs_.emit_parts();
  const std::size_t nparts = unit.bodies.size();
  const std::uint64_t key = content_key(unit, jopts);
  const pipeline::ArtifactStore store(jopts.cache_dir);
  const std::string so = store.path("jit", key, "so");
  const std::string cpp = store.path("jit", key, "cpp");
  std::string why;

  if (!jopts.force_recompile && store.contains("jit", key, "so")) {
    if (js.load(so, &why)) {
      js.from_cache_ = true;
      js.native_ = true;
      return js;
    }
    de.warning("JIT-004", "jit engine",
               "discarding stale or corrupt cache entry " + so + ": " + why);
    store.discard("jit", key, "so");
  }

  const auto cannot_write = [&](const std::string& what) {
    de.warning("JIT-002", "jit engine",
               "cannot write " + what + "; falling back to interpreted tape");
  };
  std::string source = unit.prelude;
  for (const std::string& body : unit.bodies) source += body;
  if (!store.put("jit", key, "cpp", source)) {
    cannot_write(cpp);
    return js;
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
      return js;
    }
    tmpdir.path = templ;
    for (std::size_t k = 0; k < nparts; ++k) {
      const std::string path = tmpdir.path + "/" + part_name(k) + ".cpp";
      std::ofstream os(path, std::ios::binary);
      os << unit.prelude << unit.bodies[k];
      os.flush();
      if (!os.good()) {
        cannot_write(path);
        return js;
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
  js.compile_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!built) {
    if (failed.start_error != 0) {
      de.warning("JIT-001", "jit engine",
                 "host toolchain missing ('" + jopts.cxx + "': " +
                     std::generic_category().message(failed.start_error) +
                     "); falling back to interpreted tape");
    } else if (failed.argv.empty()) {
      cannot_write(so);  // every command succeeded; the rename did not
    } else {
      auto& d = de.warning("JIT-002", "jit engine",
                           std::string(linking ? "generated parts failed to link"
                                               : "generated source failed to compile") +
                               "; falling back to interpreted tape");
      d.note("command: " + failed.text());
      const std::string& out = failed.output;
      if (!out.empty())
        d.note(out.size() > 2000 ? out.substr(0, 2000) + "..." : out);
    }
    return js;
  }

  if (!js.load(so, &why)) {
    de.warning("JIT-003", "jit engine",
               "compiled artifact failed to load (" + why +
                   "); falling back to interpreted tape");
    return js;
  }
  js.native_ = true;
  return js;
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
  UntimedFault& f = *self->fault_;
  if (f.raised.load()) return -1;
  try {
    self->cs_.invoke_untimed(static_cast<std::size_t>(comp), 0);
    return 1;
  } catch (...) {
    std::lock_guard<std::mutex> lk(f.mu);
    if (f.ex == nullptr) f.ex = std::current_exception();
    f.raised.store(true);
    return -1;
  }
}

// Phases 0-3 run in the emitted unit; the walk decision, the level-parallel
// walk and SCHED-001/002 are the shared phase-2 core's (sched/phase2.h).
void JitSystem::native_cycle() {
  cs_.begin_cycle();
  JitState st = make_state();
  const sim::Image& img = *cs_.img_;
  sched::Phase2& core = cs_.core_;
  const bool walk = core.walks(img.level_offsets, img.sched_reason, cs_.cycles_);
  int ret;
  if (walk && core.parallel()) {
    fn_begin_(&st);
    sched::walk_levels(img.level_offsets, core.threads, [&](std::size_t k) {
      fn_try_slot_(&st, static_cast<int>(k));
    });
    ret = fn_finish_(&st);
  } else {
    ret = fn_cycle_(&st, walk ? 1 : 0);
  }

  if (fault_->raised.load()) {
    std::exception_ptr e = std::exchange(fault_->ex, nullptr);
    fault_->raised.store(false);
    std::rethrow_exception(e);
  }
  if (st.deadlock == 2) cs_.unknown_opcode(static_cast<std::size_t>(st.dl_comp), st.dl_op, 0);
  if (ret < 0 || st.deadlock == 1) core.deadlock(cs_.postmortem());

  // The unit returns the sweeps it made beyond the first.
  core.retry_passes += static_cast<std::uint64_t>(ret);
  if (walk) core.walk_outcome(ret == 0, cs_.cycles_);
  for (const int f : cs_.fired_) core.firings += f != 0 ? 1 : 0;
  ++cs_.cycles_;
}

void JitSystem::cycle() {
  if (!native_) {
    cs_.cycle();
    return;
  }
  native_cycle();
}

RunResult JitSystem::run(const RunOptions& opts) {
  // The tape engine already implements the full unified contract; use it
  // directly for the fallback and for profiled runs (per-component timing
  // needs the instrumented interpreter loop).
  if (!native_ || opts.profile) return cs_.run(opts);

  return cs_.run_steps(opts, [this] { native_cycle(); });
}

}  // namespace asicpp::jit
