// Built-in engines. Each engine here is just an Instance factory plus its
// capability flags and domain limits — the per-cycle capture loops live
// once in Engine::trace / Engine::trace_ckpt (engine.cpp), and the same
// instances serve diff_run, the fuzzer's --engines selection, the bench
// harness, the compile pipeline and the simulation service's sessions.
#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "batch/batch.h"
#include "fixpt/fixed.h"
#include "jit/jit.h"
#include "netlist/equiv.h"
#include "netlist/netsim.h"
#include "sched/cyclesched.h"
#include "sim/compiled.h"
#include "synth/system.h"

namespace asicpp::engine {

namespace {

using verify::CompKind;
using verify::Spec;
using verify::System;

std::string scratch_dir(const TraceOptions& opts) {
  if (!opts.workdir.empty()) return opts.workdir;
  if (const char* t = std::getenv("TMPDIR")) return t;
  return "/tmp";
}

/// The compiled tape of `s`, and for the jit engine its native tier.
sim::CompiledSystem compile_tape(const sched::CycleScheduler& s, bool native,
                                 const TraceOptions& opts) {
  if (!native) return sim::CompiledSystem::compile(s, opts.passes);
  jit::JitOptions jo;
  jo.cxx = opts.cxx;
  jo.cache_dir = opts.store_dir;
  jo.diagnostics = opts.diagnostics;
  jo.swap_at = opts.swap_at;
  return jit::compile(s, opts.passes, jo);
}

// --- interpreted CycleScheduler (iterative / levelized) --------------------

/// Drives a CycleScheduler — either one owned via a materialized System
/// (instantiate) or a caller-owned live one (bind).
class SchedInstance : public Instance {
 public:
  SchedInstance(const Spec& spec, ScheduleMode mode, const TraceOptions& opts)
      : sys_(std::make_unique<System>(spec)), s_(&sys_->scheduler()) {
    s_->set_schedule_mode(mode);
    s_->set_pass_options(opts.passes);
  }
  SchedInstance(sched::CycleScheduler& s, ScheduleMode mode,
                const TraceOptions& opts)
      : s_(&s) {
    s_->set_schedule_mode(mode);
    s_->set_pass_options(opts.passes);
  }

  void cycle() override { s_->cycle(); }
  double probe(const std::string& n) const override { return at(n).last().value(); }
  bool has_net(const std::string& n) const override { return s_->find_net(n) != nullptr; }
  void poke(const std::string& n, double v) override { at(n).drive(fixpt::Fixed(v)); }
  bool save_state(std::ostream& os) override {
    s_->save_state(os);
    return true;
  }
  bool restore_state(std::istream& is) override {
    s_->restore_state(is);
    return true;
  }

 private:
  // The looked-up net; an unknown name throws like the compiled engines,
  // instead of adding a net to the live scheduler.
  sched::Net& at(const std::string& n) const {
    sched::Net* net = s_->find_net(n);
    if (net == nullptr) throw std::out_of_range("CycleScheduler: no net '" + n + "'");
    return *net;
  }

  std::unique_ptr<System> sys_;  ///< null when bound to a live scheduler
  sched::CycleScheduler* s_;
};

class InterpretedEngine : public Engine {
 public:
  InterpretedEngine(std::string name, ScheduleMode mode)
      : name_(std::move(name)), mode_(mode) {
    caps_.checkpointable = true;
    caps_.pass_aware = true;
    // Only the iterative engine contributes a passes-off replay: with the
    // pipeline disabled the scheduler falls back to the recursive graph
    // walk, and one such replay covers both interpreted modes.
    caps_.pass_axis = mode == ScheduleMode::kIterative;
    caps_.in_process = true;
  }

  const std::string& name() const override { return name_; }
  const Capabilities& caps() const override { return caps_; }

  std::unique_ptr<Instance> instantiate(
      const Spec& spec, const TraceOptions& opts) const override {
    return std::make_unique<SchedInstance>(spec, mode_, opts);
  }

  std::unique_ptr<Instance> bind(sched::CycleScheduler& sched,
                                 const TraceOptions& opts) const override {
    return std::make_unique<SchedInstance>(sched, mode_, opts);
  }

 private:
  std::string name_;
  ScheduleMode mode_;
  Capabilities caps_;
};

// --- compiled flat-tape simulator and the in-process JIT --------------------

class TapeInstance : public Instance {
 public:
  TapeInstance(const Spec& spec, bool native, const TraceOptions& opts)
      : sys_(std::make_unique<System>(spec)),
        native_(native),
        cs_(compile_tape(sys_->scheduler(), native, opts)) {}
  TapeInstance(sched::CycleScheduler& s, bool native, const TraceOptions& opts)
      : sched_(&s), native_(native), cs_(compile_tape(s, native, opts)) {}

  void cycle() override { cs_.cycle(); }
  double probe(const std::string& n) const override { return cs_.net_value(n); }
  bool has_net(const std::string& n) const override { return cs_.has_net(n); }
  void poke(const std::string& n, double v) override {
    // Validates the name first; for a live-scheduler binding the per-cycle
    // external refresh reads the sched::Net, so the pin must be driven there
    // or the poke would be overwritten on the next cycle.
    cs_.poke(n, v);
    if (sched_ != nullptr)
      if (sched::Net* net = sched_->find_net(n)) net->drive(fixpt::Fixed(v));
  }
  bool save_state(std::ostream& os) override {
    cs_.save_state(os);
    return true;
  }
  bool restore_state(std::istream& is) override {
    cs_.restore_state(is);
    return true;
  }
  std::optional<Tier> tier() const override {
    if (!native_) return std::nullopt;
    return Tier{cs_.native(), cs_.swap_cycle(), cs_.from_cache(), cs_.compile_seconds()};
  }

 private:
  std::unique_ptr<System> sys_;  ///< null when bound to a live scheduler
  sched::CycleScheduler* sched_ = nullptr;  ///< set only for live bindings
  bool native_;  ///< the jit engine's instance
  sim::CompiledSystem cs_;
};

/// `compiled`, the tape; and `jit`, the tape with its native tier.
class CompiledEngine : public Engine {
 public:
  CompiledEngine(std::string name, bool native) : name_(std::move(name)), native_(native) {
    caps_.checkpointable = true;  // the jit shares the tape's ckpt format
    caps_.pass_aware = true;
    // Only the tape contributes a passes-off replay (the raw tape): a
    // second host-compiler run per spec would double the axis' cost for no
    // new coverage.
    caps_.pass_axis = !native;
    caps_.in_process = true;
  }

  const std::string& name() const override { return name_; }
  const Capabilities& caps() const override { return caps_; }

  std::string domain_limit(const Spec& spec) const override {
    if (spec.has(CompKind::kAdapter))
      return "dataflow adapters have no compiled-simulation image";
    return {};
  }

  std::unique_ptr<Instance> instantiate(
      const Spec& spec, const TraceOptions& opts) const override {
    return std::make_unique<TapeInstance>(spec, native_, opts);
  }

  std::unique_ptr<Instance> bind(sched::CycleScheduler& sched,
                                 const TraceOptions& opts) const override {
    return std::make_unique<TapeInstance>(sched, native_, opts);
  }

  opt::PassOptions noopt_passes() const override {
    return opt::PassOptions::raw();
  }

 private:
  std::string name_;
  bool native_;
  Capabilities caps_;
};

// --- lane-batched SoA evaluator --------------------------------------------

class BatchedInstance : public Instance {
 public:
  BatchedInstance(const Spec& spec, const TraceOptions& opts)
      : sys_(spec),
        lanes_(opts.lanes == 0 ? 1 : opts.lanes),
        // The reported trace comes from a seed-dependent lane, so the fuzz
        // campaign sweeps lane positions: any lane-position dependence
        // shows up as an engine-axis divergence against the scalar engines.
        report_(static_cast<unsigned>(spec.seed % lanes_)),
        probes_(spec.probes()),
        bs_(batch::BatchedSystem::compile(sys_.scheduler(), lanes_,
                                          opts.passes)) {}

  void cycle() override {
    const std::uint64_t c = cycle_++;
    bs_.cycle();
    if (!pristine_) return;
    // Lane-invariance contract: every lane replays the same spec with the
    // same stimulus, so any divergence is a batching bug — checked on
    // every fuzz seed, every cycle. After a per-lane restore the lanes
    // deliberately diverge (only the report lane resumes; the others
    // replay from reset, exercising the masked per-lane paths), so the
    // check is retired.
    for (const std::string& n : probes_) {
      const double v0 = bs_.net_value(0, n);
      for (unsigned l = 1; l < lanes_; ++l) {
        if (bs_.net_value(l, n) != v0)
          throw std::runtime_error(
              "lane-invariance violation: net '" + n + "' lane " +
              std::to_string(l) + " = " + std::to_string(bs_.net_value(l, n)) +
              ", lane 0 = " + std::to_string(v0) + " at cycle " +
              std::to_string(c));
      }
    }
  }

  double probe(const std::string& n) const override {
    return bs_.net_value(report_, n);
  }
  bool has_net(const std::string& n) const override { return bs_.has_net(n); }
  void poke(const std::string& n, double v) override {
    // All lanes get the same stimulus, preserving the invariance contract.
    bs_.poke_all(n, v);
  }
  bool save_state(std::ostream& os) override {
    bs_.save_lane(report_, os);
    return true;
  }
  bool restore_state(std::istream& is) override {
    bs_.restore_lane(report_, is);
    pristine_ = false;
    return true;
  }

 private:
  System sys_;
  unsigned lanes_;
  unsigned report_;
  std::vector<std::string> probes_;
  batch::BatchedSystem bs_;
  bool pristine_ = true;
  std::uint64_t cycle_ = 0;
};

class BatchedEngine : public Engine {
 public:
  BatchedEngine() {
    caps_.checkpointable = true;  // per-lane snapshots (ckpt kBatched)
    caps_.pass_aware = true;
    // No passes-off replay of its own: the raw tape is covered by the
    // compiled engine, and the batched evaluator replays the same image.
    caps_.pass_axis = false;
    // Not bindable: bind() attaches one engine to one live scheduler, and
    // a one-lane batch adds nothing over `compiled`.
    caps_.in_process = false;
  }

  const std::string& name() const override { return name_; }
  const Capabilities& caps() const override { return caps_; }

  std::string domain_limit(const Spec& spec) const override {
    if (spec.has(CompKind::kAdapter))
      return "dataflow adapters have no compiled-simulation image";
    return {};
  }

  std::unique_ptr<Instance> instantiate(
      const Spec& spec, const TraceOptions& opts) const override {
    return std::make_unique<BatchedInstance>(spec, opts);
  }

 private:
  std::string name_ = "batched";
  Capabilities caps_;
};

// --- generated standalone C++ simulator ------------------------------------

/// The generated simulator is an external batch process printing its whole
/// trace at once, so the instance runs it to completion at construction
/// and replays the parsed rows cycle by cycle.
class CppgenInstance : public Instance {
 public:
  CppgenInstance(const Spec& spec, const TraceOptions& opts)
      : probes_(spec.probes()) {
    System sys(spec);
    sim::CompiledSystem cs =
        sim::CompiledSystem::compile(sys.scheduler(), opts.passes);

    // Atomic: concurrent diff_run_batch lanes each need a unique scratch stem.
    static std::atomic<int> counter{0};
    const std::string stem = scratch_dir(opts) + "/asicpp_fuzz_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(counter.fetch_add(1)) + "_s" +
                             std::to_string(spec.seed);
    const std::string src = stem + ".cpp", bin = stem + ".bin";
    {
      std::ofstream os(src);
      if (!os) throw std::runtime_error("cannot write " + src);
      cs.emit_cpp(os, probes_, spec.cycles);
    }
    std::string text;
    if (jit::run_command({opts.cxx, "-O2", "-std=c++17", "-o", bin, src}, &text) != 0) {
      std::remove(src.c_str());
      throw std::runtime_error("generated simulator failed to compile: " +
                               text);
    }
    text.clear();
    const int rc = jit::run_command({bin}, &text);
    std::remove(src.c_str());
    std::remove(bin.c_str());
    if (rc != 0)
      throw std::runtime_error("generated simulator exited with status " +
                               std::to_string(rc) + ": " + text);
    std::istringstream is(text);
    std::vector<double> flat;
    std::string line;
    while (std::getline(is, line))
      if (!line.empty()) flat.push_back(std::atof(line.c_str()));
    if (flat.size() != spec.cycles * probes_.size())
      throw std::runtime_error(
          "generated simulator printed " + std::to_string(flat.size()) +
          " values, expected " +
          std::to_string(spec.cycles * probes_.size()));
    for (std::uint64_t c = 0; c < spec.cycles; ++c)
      rows_.emplace_back(
          flat.begin() + static_cast<long>(c * probes_.size()),
          flat.begin() + static_cast<long>((c + 1) * probes_.size()));
  }

  void cycle() override {
    if (cursor_ >= rows_.size())
      throw std::runtime_error("generated simulator trace exhausted after " +
                               std::to_string(rows_.size()) + " cycles");
    ++cursor_;
  }

  double probe(const std::string& n) const override {
    if (cursor_ == 0)
      throw std::runtime_error("probe before the first cycle");
    for (std::size_t i = 0; i < probes_.size(); ++i)
      if (probes_[i] == n) return rows_[cursor_ - 1][i];
    throw std::runtime_error("net '" + n +
                             "' is not observed by the generated simulator");
  }
  bool has_net(const std::string& n) const override {
    return std::find(probes_.begin(), probes_.end(), n) != probes_.end();
  }

 private:
  std::vector<std::string> probes_;
  std::vector<std::vector<double>> rows_;
  std::size_t cursor_ = 0;
};

class CppgenEngine : public Engine {
 public:
  const std::string& name() const override { return name_; }
  const Capabilities& caps() const override { return caps_; }

  std::string domain_limit(const Spec& spec) const override {
    if (spec.has(CompKind::kAdapter) || spec.has(CompKind::kUntimed))
      return "untimed/adapter behaviour has no generated-code image";
    return {};
  }

  std::unique_ptr<Instance> instantiate(
      const Spec& spec, const TraceOptions& opts) const override {
    return std::make_unique<CppgenInstance>(spec, opts);
  }

 private:
  std::string name_ = "cppgen";
  Capabilities caps_;  // all false: external process, no snapshots, no passes
};

// --- gate-level netlist -----------------------------------------------------

class GatesInstance : public Instance {
 public:
  explicit GatesInstance(const Spec& spec)
      : sys_(spec), probes_(spec.probes()), fmt_(spec.fmt()) {
    synth::SystemSynthSpec sspec;
    sspec.observe = probes_;
    synth::synthesize_system(sys_.scheduler(), nl_, sspec);

    // Bus widths of the observed outputs, recovered from the port names.
    widths_.assign(probes_.size(), 0);
    for (const auto& [name, gate] : nl_.outputs()) {
      (void)gate;
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        const std::string prefix = "net_" + probes_[i] + "[";
        if (name.rfind(prefix, 0) == 0)
          widths_[i] =
              std::max(widths_[i], std::stoi(name.substr(prefix.size())) + 1);
      }
    }
    for (std::size_t i = 0; i < probes_.size(); ++i)
      if (widths_[i] <= 0)
        throw std::runtime_error("gates: observed net '" + probes_[i] +
                                 "' has no output bus");
    sim_ = std::make_unique<netlist::LevelizedSim>(nl_);
  }

  // The gate simulator settles combinational logic before each capture and
  // clocks the registers *between* captures, so a cycle here is
  // "clock (except before the first capture), then settle".
  void cycle() override {
    if (!first_) sim_->cycle();
    first_ = false;
    sim_->settle();
  }

  double probe(const std::string& n) const override {
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (probes_[i] != n) continue;
      const long long mant =
          netlist::read_bus(*sim_, "net_" + n, widths_[i], fmt_.is_signed);
      return std::ldexp(static_cast<double>(mant), -fmt_.frac_bits());
    }
    throw std::runtime_error("gates: net '" + n + "' is not observed");
  }
  bool has_net(const std::string& n) const override {
    return std::find(probes_.begin(), probes_.end(), n) != probes_.end();
  }

 private:
  System sys_;
  std::vector<std::string> probes_;
  fixpt::Format fmt_;
  netlist::Netlist nl_;
  std::vector<int> widths_;
  std::unique_ptr<netlist::LevelizedSim> sim_;
  bool first_ = true;
};

class GatesEngine : public Engine {
 public:
  const std::string& name() const override { return name_; }
  const Capabilities& caps() const override { return caps_; }

  std::string domain_limit(const Spec& spec) const override {
    if (spec.has(CompKind::kAdapter) || spec.has(CompKind::kUntimed))
      return "untimed/adapter behaviour has no gate-level image";
    return {};
  }

  std::unique_ptr<Instance> instantiate(
      const Spec& spec, const TraceOptions& opts) const override {
    (void)opts;
    return std::make_unique<GatesInstance>(spec);
  }

 private:
  std::string name_ = "gates";
  Capabilities caps_;  // all false
};

}  // namespace

void register_builtin_engines(Registry& r) {
  r.add(std::make_unique<InterpretedEngine>("iterative",
                                            ScheduleMode::kIterative));
  r.add(std::make_unique<InterpretedEngine>("levelized",
                                            ScheduleMode::kLevelized));
  r.add(std::make_unique<CompiledEngine>("compiled", false));
  r.add(std::make_unique<CppgenEngine>());
  r.add(std::make_unique<GatesEngine>());
  r.add(std::make_unique<CompiledEngine>("jit", true));
  r.add(std::make_unique<BatchedEngine>());
}

}  // namespace asicpp::engine
