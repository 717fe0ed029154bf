#include "pipeline/pipeline.h"

#include <chrono>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "pipeline/artifact.h"

namespace asicpp::pipeline {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

engine::TraceOptions trace_options(const CompileRequest& req) {
  engine::TraceOptions t;
  t.passes = req.passes;
  t.workdir = req.workdir;
  t.cxx = req.cxx;
  t.store_dir = req.store_dir;
  t.lanes = req.lanes;
  t.tiered = req.tiered;
  t.hold_swap = req.hold_swap;
  t.diagnostics = req.diagnostics;
  return t;
}

CompileResult failure(const CompileRequest& req, const std::string& code,
                      const std::string& error) {
  CompileResult r;
  r.engine = req.engine;
  r.code = code;
  r.error = error;
  if (req.diagnostics != nullptr) {
    if (code == "PIPE-004")
      req.diagnostics->note(code, "engine '" + req.engine + "'", error);
    else
      req.diagnostics->error(code, "pipeline", error);
  }
  return r;
}

}  // namespace

std::uint64_t request_key(const verify::Spec& spec,
                          const CompileRequest& req) {
  ckpt::Hasher h;
  h.str("asicpp-pipeline").u32(kStoreRevision);
  h.str(verify::to_text(spec));
  h.str(req.engine);
  h.str(req.cxx);
  h.u32(req.lanes);
  const opt::PassOptions& p = req.passes;
  h.u8(p.lower).u8(p.canonicalize).u8(p.fold).u8(p.identities).u8(p.cse).u8(
      p.dce);
  return h.digest();
}

CompileResult compile(const CompileRequest& req) {
  const engine::Registry& reg = engine::Registry::global();
  const engine::Engine* eng = reg.find(req.engine);
  if (eng == nullptr)
    return failure(req, "PIPE-002",
                   "unknown engine '" + req.engine +
                       "' (registered: " + reg.names_csv() + ")");

  CompileResult r;
  r.engine = req.engine;
  const engine::TraceOptions topts = trace_options(req);

  // --- design-based request: bind to the caller's live scheduler ----------
  if (req.design != nullptr) {
    if (!eng->caps().in_process)
      return failure(req, "PIPE-004",
                     "engine '" + req.engine +
                         "' cannot bind to a live design (not in_process)");
    const auto t0 = std::chrono::steady_clock::now();
    try {
      r.instance = eng->bind(*req.design, topts);
    } catch (const std::exception& ex) {
      return failure(req, "PIPE-003",
                     "engine '" + req.engine + "' failed to bind: " +
                         std::string(ex.what()));
    }
    if (r.instance == nullptr)
      return failure(req, "PIPE-004",
                     "engine '" + req.engine +
                         "' cannot bind to a live design (not in_process)");
    r.stages.push_back({"bind", seconds_since(t0)});
    r.probes = req.probes;
    r.store_hit = r.instance->from_cache();
    r.compile_seconds = r.instance->compile_seconds();
    r.ok = true;
    return r;
  }

  // --- spec-based request: parse -> elaborate -> bind ----------------------
  r.spec_based = true;
  if (req.has_spec) {
    r.spec = req.spec;
    const std::string err = verify::validate(r.spec);
    if (!err.empty())
      return failure(req, "PIPE-001", "invalid spec: " + err);
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      r.spec = verify::from_text(req.spec_text);
    } catch (const std::exception& ex) {
      return failure(req, "PIPE-001", ex.what());
    }
    r.stages.push_back({"parse", seconds_since(t0)});
  }

  {
    const auto t0 = std::chrono::steady_clock::now();
    r.probes = r.spec.probes();
    r.spec_key = request_key(r.spec, req);
    const std::string limit = eng->domain_limit(r.spec);
    if (!limit.empty()) return failure(req, "PIPE-004", limit);
    r.stages.push_back({"elaborate", seconds_since(t0)});
  }

  {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      r.instance = eng->instantiate(r.spec, topts);
    } catch (const std::exception& ex) {
      return failure(req, "PIPE-003",
                     "engine '" + req.engine + "' failed to instantiate: " +
                         std::string(ex.what()));
    }
    if (r.instance == nullptr)
      return failure(req, "PIPE-003",
                     "engine '" + req.engine + "' has no spec instantiation");
    r.stages.push_back({"bind", seconds_since(t0)});
  }

  r.store_hit = r.instance->from_cache();
  r.compile_seconds = r.instance->compile_seconds();
  r.ok = true;
  return r;
}

}  // namespace asicpp::pipeline
