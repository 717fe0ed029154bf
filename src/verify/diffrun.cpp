#include "verify/diffrun.h"

#include <cstdio>
#include <sstream>

#include "engine/engine.h"
#include "par/pool.h"
#include "pipeline/pipeline.h"

namespace asicpp::verify {

namespace {

std::string engine_pair(const std::string& a, const std::string& b) {
  return a + " vs " + b;
}

/// The cycle at which the jit engine's native code takes over from the
/// tape, drawn from the seed within the first half of the run: a fuzz
/// campaign covers swaps, and every trace still ends on native code.
std::uint64_t swap_cycle(const Spec& spec) {
  return ((spec.seed * 0x9E3779B97F4A7C15ull) >> 32) % (spec.cycles / 2 + 1);
}

engine::TraceOptions trace_options(const Spec& spec, const DiffOptions& opts) {
  engine::TraceOptions t;
  t.passes = opts.passes;
  t.workdir = opts.workdir;
  t.cxx = opts.cxx;
  t.store_dir = opts.store_dir;
  t.lanes = opts.lanes;
  t.hold_swap = swap_cycle(spec);
  return t;
}

/// One engine's trace captured through the unified compile pipeline: the
/// spec goes through parse/elaborate/bind (sharing compiled artifacts with
/// every other pipeline consumer via the content-addressed store), and the
/// bound instance is stepped cycle by cycle. A domain limit (PIPE-004)
/// becomes a skip, any other pipeline failure or a mid-run exception a
/// fail; partial rows up to the failing cycle are kept, matching
/// Engine::trace.
EngineTrace trace_via_pipeline(const Spec& spec, const std::string& name,
                               const DiffOptions& opts,
                               const opt::PassOptions& passes) {
  EngineTrace t;
  t.engine = name;

  pipeline::CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = name;
  req.passes = passes;
  req.workdir = opts.workdir;
  req.cxx = opts.cxx;
  req.store_dir = opts.store_dir;
  req.lanes = opts.lanes;
  req.tiered = false;
  req.hold_swap = swap_cycle(spec);
  pipeline::CompileResult c = pipeline::compile(req);
  if (!c.ok) {
    if (c.code == "PIPE-004")
      t.skip_reason = c.error;
    else
      t.fail_reason = c.error;
    return t;
  }

  const std::vector<std::string> probes = spec.probes();
  try {
    for (std::uint64_t cyc = 0; cyc < spec.cycles; ++cyc) {
      c.instance->cycle();
      std::vector<double> row;
      row.reserve(probes.size());
      for (const std::string& p : probes) row.push_back(c.instance->probe(p));
      t.values.push_back(std::move(row));
    }
    t.ran = true;
  } catch (const std::exception& ex) {
    t.fail_reason = ex.what();
  }
  return t;
}

}  // namespace

int DiffResult::engines_ran() const {
  int n = 0;
  for (const EngineTrace& t : traces) n += t.ran ? 1 : 0;
  return n;
}

bool DiffResult::engine_failed() const {
  for (const EngineTrace& t : traces)
    if (!t.fail_reason.empty()) return true;
  for (const EngineTrace& t : noopt_traces)
    if (!t.fail_reason.empty()) return true;
  for (const EngineTrace& t : ckpt_traces)
    if (!t.fail_reason.empty()) return true;
  return false;
}

const Divergence* DiffResult::first() const {
  const Divergence* best = nullptr;
  for (const Divergence& d : divergences)
    if (best == nullptr || d.cycle < best->cycle) best = &d;
  return best;
}

std::string DiffResult::summary() const {
  std::ostringstream os;
  for (const EngineTrace& t : traces) {
    os << t.engine << ": ";
    if (t.ran)
      os << "ran, " << t.values.size() << " cycles";
    else if (!t.skip_reason.empty())
      os << "skipped (" << t.skip_reason << ")";
    else
      os << "FAILED (" << t.fail_reason << ")";
    os << "\n";
  }
  for (const EngineTrace& t : noopt_traces) {
    os << t.engine << " (passes off): ";
    if (t.ran)
      os << "ran, " << t.values.size() << " cycles";
    else if (!t.skip_reason.empty())
      os << "skipped (" << t.skip_reason << ")";
    else
      os << "FAILED (" << t.fail_reason << ")";
    os << "\n";
  }
  for (const EngineTrace& t : ckpt_traces) {
    os << t.engine << " (checkpoint at cycle " << ckpt_cycle << "): ";
    if (t.ran)
      os << "ran, " << t.values.size() << " cycles";
    else if (!t.skip_reason.empty())
      os << "skipped (" << t.skip_reason << ")";
    else
      os << "FAILED (" << t.fail_reason << ")";
    os << "\n";
  }
  for (const Divergence& d : divergences)
    os << "divergence " << engine_pair(d.ref, d.other) << " at cycle "
       << d.cycle << " net '" << d.net << "': " << d.ref_value << " vs "
       << d.other_value << "\n";
  for (const Divergence& d : pass_divergences)
    os << "pass divergence " << engine_pair(d.ref, d.other)
       << " (passes off) at cycle " << d.cycle << " net '" << d.net
       << "': " << d.ref_value << " vs " << d.other_value << "\n";
  for (const Divergence& d : ckpt_divergences)
    os << "checkpoint divergence " << d.other << " (resumed from cycle "
       << ckpt_cycle << ") at cycle " << d.cycle << " net '" << d.net
       << "': " << d.ref_value << " vs " << d.other_value << "\n";
  if (ok()) os << "all engines agree\n";
  return os.str();
}

DiffResult diff_run(const Spec& spec, const DiffOptions& opts) {
  DiffResult r;
  r.probes = spec.probes();
  const engine::Registry& reg = engine::Registry::global();
  std::vector<const engine::Engine*> engines;
  if (opts.engines.empty()) {
    engines = reg.all();
  } else {
    engines.reserve(opts.engines.size());
    for (const std::string& name : opts.engines)
      engines.push_back(&reg.at(name));  // throws listing registered names
  }
  const engine::TraceOptions topts = trace_options(spec, opts);

  const auto apply_mutant = [&](EngineTrace& t) {
    if (t.ran && opts.mutant.enabled && opts.mutant.engine == t.engine &&
        opts.mutant.cycle < t.values.size()) {
      for (std::size_t i = 0; i < r.probes.size(); ++i)
        if (r.probes[i] == opts.mutant.net)
          t.values[opts.mutant.cycle][i] += opts.mutant.delta;
    }
  };

  for (const engine::Engine* e : engines) {
    EngineTrace t = trace_via_pipeline(spec, e->name(), opts, opts.passes);
    apply_mutant(t);
    r.traces.push_back(std::move(t));
  }

  // The passes-off axis: every registered engine with the pass_axis
  // capability contributes one replay through its noopt pipeline — the
  // recursive interpreter (no lowering at all) and the raw, unoptimized
  // compiled tape.
  if (opts.pass_axis) {
    for (const engine::Engine* e : reg.all()) {
      if (!e->caps().pass_axis) continue;
      r.noopt_traces.push_back(
          trace_via_pipeline(spec, e->name(), opts, e->noopt_passes()));
    }
  }

  // The checkpoint axis (VERIFY-006): snapshot at cycle k, restore into a
  // fresh engine, continue. Needs at least one cycle on each side of the
  // snapshot, so specs shorter than two cycles skip the axis. Replays run
  // only for the checkpointable engines actually selected above.
  if (opts.ckpt_axis && spec.cycles >= 2) {
    r.ckpt_cycle = opts.ckpt_cycle != 0 && opts.ckpt_cycle < spec.cycles
                       ? opts.ckpt_cycle
                       : 1 + (spec.seed * 2654435761u) % (spec.cycles - 1);
    for (const engine::Engine* e : engines) {
      if (!e->caps().checkpointable) continue;
      EngineTrace t;
      try {
        t = e->trace_ckpt(spec, topts, r.ckpt_cycle);
      } catch (const std::exception& ex) {
        t = EngineTrace{};
        t.engine = e->name();
        t.fail_reason = ex.what();
      }
      // A mutant models an engine bug, which would survive a checkpoint:
      // apply it to the resumed trace too, so the mutated engine's replay
      // still matches its (mutated) straight-through trace.
      apply_mutant(t);
      r.ckpt_traces.push_back(std::move(t));
    }
  }

  // Compare every ran engine against the first one that ran.
  const EngineTrace* ref = nullptr;
  for (const EngineTrace& t : r.traces)
    if (t.ran) {
      ref = &t;
      break;
    }
  const auto first_divergence = [&](const EngineTrace& t,
                                    std::vector<Divergence>& out) {
    bool found = false;
    for (std::uint64_t c = 0; c < ref->values.size() && !found; ++c) {
      for (std::size_t i = 0; i < r.probes.size() && !found; ++i) {
        const double a = ref->values[c][i];
        const double b = t.values[c][i];
        if (a != b) {
          out.push_back(
              Divergence{ref->engine, t.engine, c, r.probes[i], a, b});
          found = true;
        }
      }
    }
  };
  if (ref != nullptr) {
    for (const EngineTrace& t : r.traces) {
      if (!t.ran || &t == ref) continue;
      first_divergence(t, r.divergences);
    }
    for (const EngineTrace& t : r.noopt_traces) {
      if (!t.ran) continue;
      first_divergence(t, r.pass_divergences);
    }
  }

  // Checkpoint replays diff against the *same engine's* straight-through
  // trace: a resumed run must be bit-identical to an uninterrupted one.
  for (const EngineTrace& t : r.ckpt_traces) {
    if (!t.ran) continue;
    const EngineTrace* straight = nullptr;
    for (const EngineTrace& s : r.traces)
      if (s.engine == t.engine && s.ran) straight = &s;
    if (straight == nullptr) continue;
    bool found = false;
    for (std::uint64_t c = 0; c < straight->values.size() && !found; ++c) {
      for (std::size_t i = 0; i < r.probes.size() && !found; ++i) {
        const double a = straight->values[c][i];
        const double b = t.values[c][i];
        if (a != b) {
          r.ckpt_divergences.push_back(
              Divergence{t.engine, t.engine, c, r.probes[i], a, b});
          found = true;
        }
      }
    }
  }

  if (opts.diagnostics != nullptr) {
    diag::DiagEngine& de = *opts.diagnostics;
    for (const EngineTrace& t : r.traces) {
      if (!t.skip_reason.empty())
        de.note("VERIFY-003", "engine '" + t.engine + "'",
                "skipped: " + t.skip_reason);
      if (!t.fail_reason.empty())
        de.error("VERIFY-002", "engine '" + t.engine + "'",
                 "engine failed on generated spec (seed " +
                     std::to_string(spec.seed) + "): " + t.fail_reason);
    }
    for (const EngineTrace& t : r.noopt_traces) {
      if (!t.fail_reason.empty())
        de.error("VERIFY-002", "engine '" + t.engine + "' (passes off)",
                 "engine failed on generated spec (seed " +
                     std::to_string(spec.seed) + "): " + t.fail_reason);
    }
    for (const EngineTrace& t : r.ckpt_traces) {
      if (!t.fail_reason.empty())
        de.error("VERIFY-002", "engine '" + t.engine + "' (checkpoint replay)",
                 "engine failed on generated spec (seed " +
                     std::to_string(spec.seed) + "): " + t.fail_reason);
    }
    for (const Divergence& d : r.divergences) {
      auto& rec = de.error(
          "VERIFY-001", engine_pair(d.ref, d.other),
          "cross-representation trace divergence on net '" + d.net + "'");
      rec.cycle = d.cycle;
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s = %.17g, %s = %.17g", d.ref.c_str(),
                    d.ref_value, d.other.c_str(), d.other_value);
      rec.note(buf);
      rec.note("spec: seed " + std::to_string(spec.seed) + ", " +
               std::to_string(spec.comps.size()) + " components, " +
               std::to_string(spec.cycles) + " cycles");
    }
    for (const Divergence& d : r.pass_divergences) {
      auto& rec = de.error(
          "VERIFY-005", engine_pair(d.ref, d.other),
          "optimizer pass pipeline changed observable behaviour on net '" +
              d.net + "'");
      rec.cycle = d.cycle;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "%s (passes on) = %.17g, %s (passes off) = %.17g",
                    d.ref.c_str(), d.ref_value, d.other.c_str(),
                    d.other_value);
      rec.note(buf);
      rec.note("spec: seed " + std::to_string(spec.seed) + ", " +
               std::to_string(spec.comps.size()) + " components, " +
               std::to_string(spec.cycles) + " cycles");
    }
    for (const Divergence& d : r.ckpt_divergences) {
      auto& rec = de.error(
          "VERIFY-006", "engine '" + d.other + "'",
          "checkpoint replay diverged from straight-through run on net '" +
              d.net + "'");
      rec.cycle = d.cycle;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "straight-through = %.17g, resumed = %.17g", d.ref_value,
                    d.other_value);
      rec.note(buf);
      rec.note("snapshot taken at cycle " + std::to_string(r.ckpt_cycle));
      rec.note("spec: seed " + std::to_string(spec.seed) + ", " +
               std::to_string(spec.comps.size()) + " components, " +
               std::to_string(spec.cycles) + " cycles");
    }
  }
  return r;
}

std::vector<DiffResult> diff_run_batch(const std::vector<Spec>& specs,
                                       const DiffOptions& opts, unsigned jobs) {
  std::vector<DiffResult> results(specs.size());
  // Each lane reports into a private engine; the sinks are merged into the
  // caller's engine in spec order below, so the diagnostic stream cannot
  // depend on worker interleaving.
  std::vector<diag::DiagEngine> sinks(specs.size());
  par::Pool::shared().parallel_for(
      specs.size(),
      [&](std::size_t i) {
        DiffOptions local = opts;
        local.diagnostics = opts.diagnostics != nullptr ? &sinks[i] : nullptr;
        results[i] = diff_run(specs[i], local);
      },
      jobs == 0 ? par::Pool::hardware_lanes() : jobs);
  if (opts.diagnostics != nullptr) {
    for (const auto& s : sinks)
      for (const auto& d : s.all()) opts.diagnostics->report(d);
  }
  return results;
}

}  // namespace asicpp::verify
