#include "jit/jit.h"

#include <dlfcn.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "par/pool.h"
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
  if (hash() != cs_.ir_hash_) {
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
  JitSystem js;
  js.cs_ = CS::compile(sched, passes);
  js.ex_mu_ = std::make_shared<std::mutex>();
  js.states_.assign(js.cs_.comps_.size(), 0);
  js.fired_.assign(js.cs_.comps_.size(), 0);
  js.sel_.assign(js.cs_.comps_.size(), -1);
  js.pending_.assign(js.cs_.comps_.size(), -1);
  js.sync_states_from_cs();

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
  st.T = cs_.net_token_.data();
  st.state = states_.data();
  st.fired = fired_.data();
  st.sel = sel_.data();
  st.pending = pending_.data();
  st.host = this;
  st.fire_untimed = &JitSystem::fire_untimed_cb;
  return st;
}

int JitSystem::fire_untimed_cb(void* host, int comp) {
  auto* self = static_cast<JitSystem*>(host);
  CS& cs = self->cs_;
  CS::Comp& c = cs.comps_[static_cast<std::size_t>(comp)];
  {
    std::lock_guard<std::mutex> lk(*self->ex_mu_);
    if (self->untimed_ex_ != nullptr) return -1;
  }
  try {
    std::vector<fixpt::Fixed> in;
    in.reserve(c.in_nets.size());
    for (const auto n : c.in_nets)
      in.emplace_back(cs.slots_[static_cast<std::size_t>(
          cs.net_slots_[static_cast<std::size_t>(n)])]);
    const auto out = c.untimed->invoke(in);
    if (out.size() != c.out_nets.size())
      throw std::logic_error("JitSystem '" + c.name +
                             "': untimed arity mismatch");
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto n = static_cast<std::size_t>(c.out_nets[i]);
      cs.slots_[static_cast<std::size_t>(cs.net_slots_[n])] = out[i].value();
      cs.net_token_[n] = 1;
    }
    return 1;
  } catch (...) {
    std::lock_guard<std::mutex> lk(*self->ex_mu_);
    if (self->untimed_ex_ == nullptr) self->untimed_ex_ = std::current_exception();
    return -1;
  }
}

void JitSystem::sync_states_from_cs() {
  for (std::size_t i = 0; i < cs_.comps_.size(); ++i)
    states_[i] = cs_.comps_[i].kind == CS::Kind::kFsm ? cs_.comps_[i].state : 0;
}

void JitSystem::sync_states_to_cs() {
  for (std::size_t i = 0; i < cs_.comps_.size(); ++i)
    if (cs_.comps_[i].kind == CS::Kind::kFsm) cs_.comps_[i].state = states_[i];
}

// Mirror the transient per-cycle flags back into the tape structures so the
// shared SCHED-001 post-mortem sees exactly what the native kernel saw.
void JitSystem::sync_runtime_to_cs() {
  sync_states_to_cs();
  for (std::size_t i = 0; i < cs_.comps_.size(); ++i) {
    CS::Comp& c = cs_.comps_[i];
    c.fired = fired_[i] != 0;
    c.selected = sel_[i];
    c.pending = nullptr;
    if (c.kind == CS::Kind::kFsm && pending_[i] >= 0) {
      const auto& ts = c.by_state[static_cast<std::size_t>(states_[i])];
      if (static_cast<std::size_t>(pending_[i]) < ts.size())
        c.pending = &ts[static_cast<std::size_t>(pending_[i])];
    }
  }
}

void JitSystem::native_cycle() {
  auto& tok = cs_.net_token_;
  std::fill(tok.begin(), tok.end(), 0);
  for (std::size_t i = 0; i < cs_.ext_nets_.size(); ++i) {
    auto* n = const_cast<sched::Net*>(cs_.ext_nets_[i]);
    n->begin_cycle();
    if (n->has_token()) {
      cs_.slots_[static_cast<std::size_t>(cs_.ext_net_slots_[i])] =
          n->token().value();
      tok[i] = 1;
    }
  }
  for (const auto& r : cs_.refresh_)
    cs_.slots_[static_cast<std::size_t>(r.slot)] = r.node->value.value();

  JitState st = make_state();
  const bool walk = cs_.mode_ != ScheduleMode::kIterative && cs_.levelizable_;
  const bool par_walk =
      walk && cs_.threads_ > 1 && !par::Pool::in_parallel_region();
  int ret;
  if (par_walk) {
    fn_begin_(&st);
    for (std::size_t l = 0; l + 1 < cs_.level_offsets_.size(); ++l) {
      const std::size_t b = cs_.level_offsets_[l];
      const std::size_t e = cs_.level_offsets_[l + 1];
      if (e - b < CS::kMinParallelWidth) {
        for (std::size_t k = b; k < e; ++k)
          fn_try_slot_(&st, static_cast<int>(k));
      } else {
        par::Pool::shared().parallel_for(
            e - b,
            [&](std::size_t k) { fn_try_slot_(&st, static_cast<int>(b + k)); },
            cs_.threads_);
      }
    }
    ret = fn_finish_(&st);
  } else {
    ret = fn_cycle_(&st, walk ? 1 : 0);
  }

  if (untimed_ex_ != nullptr) {
    std::exception_ptr e = untimed_ex_;
    untimed_ex_ = nullptr;
    std::rethrow_exception(e);
  }
  if (st.deadlock == 2) {
    throw std::logic_error(
        "CompiledSystem '" +
        cs_.comps_[static_cast<std::size_t>(st.dl_comp)].name +
        "': unknown opcode " + std::to_string(st.dl_op) + " and no default");
  }
  if (ret < 0 || st.deadlock == 1) {
    sync_runtime_to_cs();
    diag::Diagnostic d = cs_.deadlock_postmortem();
    cs_.diagnostics().report(d);
    throw sched::DeadlockError(std::move(d));
  }

  if (ret > 0) cs_.retry_passes_total_ += static_cast<std::uint64_t>(ret);
  if (walk && ret == 0) ++cs_.levelized_cycles_total_;
  std::size_t fired = 0;
  for (const int f : fired_) fired += f != 0 ? 1 : 0;
  cs_.fired_total_.add(fired);
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

  struct Restore {
    CS& cs;
    diag::DiagEngine* diag;
    ScheduleMode mode;
    unsigned threads;
    ~Restore() {
      cs.diag_ = diag;
      cs.mode_ = mode;
      cs.threads_ = threads;
    }
  } restore{cs_, cs_.diag_, cs_.mode_, cs_.threads_};
  if (opts.diagnostics != nullptr) cs_.diag_ = opts.diagnostics;
  cs_.mode_ = opts.schedule;
  cs_.set_threads(opts.nthreads);

  return run_cycles(
      opts, "jit engine", cs_.diagnostics(), cs_.watchdog_tripped_,
      [&] {
        return CycleTotals{cs_.cycles_, cs_.fired_total_.get(),
                           cs_.retry_passes_total_, cs_.levelized_cycles_total_};
      },
      [&] { native_cycle(); });
}

void JitSystem::reset() {
  cs_.reset();
  sync_states_from_cs();
  std::fill(fired_.begin(), fired_.end(), 0);
  std::fill(sel_.begin(), sel_.end(), -1);
  std::fill(pending_.begin(), pending_.end(), -1);
}

void JitSystem::save_state(std::ostream& os) {
  sync_states_to_cs();
  cs_.save_state(os);
}

void JitSystem::restore_state(std::istream& is) {
  sync_states_to_cs();  // keep the rollback snapshot coherent
  cs_.restore_state(is);
  sync_states_from_cs();
}

}  // namespace asicpp::jit
