#include "jit/jit.h"

#include <dlfcn.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "ckpt/snapshot.h"
#include "pipeline/artifact.h"

namespace asicpp::jit {

using CS = sim::CompiledSystem;
using sim::JitState;
using sim::kJitAbi;

// ---------------------------------------------------------------------------
// Artifact cache: the shared content-addressed store (pipeline/artifact.h),
// stage "jit". The key folds in the store revision, the jit format + ABI
// revisions, the full compile command and the emitted source, so any skew
// invalidates old entries instead of misloading them.

int run_command(const std::string& cmd, std::string* out) {
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) {
    *out = "popen failed";
    return -1;
  }
  char buf[512];
  while (std::fgets(buf, sizeof buf, p) != nullptr) *out += buf;
  return pclose(p);
}

std::string cache_dir(const JitOptions& jopts) {
  return pipeline::ArtifactStore::resolve_dir(jopts.cache_dir);
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

  std::ostringstream src;
  js.cs_.emit_unit(src);
  const std::string source = src.str();

  // Content key: store + format + ABI revision, the full compile command,
  // and the emitted source (which embeds the lowered IR and the IR content
  // hash).
  ckpt::Hasher h;
  h.str("asicpp-jit")
      .u32(pipeline::kStoreRevision)
      .u32(kJitFormatVersion)
      .u32(kJitAbi)
      .str(jopts.cxx)
      .str(jopts.flags)
      .str(source);
  const std::uint64_t key = h.digest();
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

  if (!store.put("jit", key, "cpp", source)) {
    de.warning("JIT-002", "jit engine",
               "cannot write " + cpp + "; falling back to interpreted tape");
    return js;
  }

  std::string cmd, out;
  int rc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const bool compiled = store.put_via("jit", key, "so", [&](const std::string& tmp) {
    cmd = jopts.cxx + " " + jopts.flags + " -shared -fPIC -o " + tmp + " " + cpp;
    rc = run_command(cmd, &out);
    return rc == 0;
  });
  js.compile_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!compiled) {
    const bool missing = WIFEXITED(rc) && WEXITSTATUS(rc) == 127;
    if (missing) {
      de.warning("JIT-001", "jit engine",
                 "host toolchain missing ('" + jopts.cxx +
                     "' not found); falling back to interpreted tape");
    } else {
      auto& d = de.warning("JIT-002", "jit engine",
                           "generated source failed to compile; falling back "
                           "to interpreted tape");
      d.note("command: " + cmd);
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
