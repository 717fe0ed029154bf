#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "diag/diag.h"
#include "engine/engine.h"
#include "pipeline/artifact.h"
#include "pipeline/pipeline.h"

namespace asicpp::service {

namespace {

Json ok_json() {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  return j;
}

Json error_json(const std::string& why) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("error", Json::string(why));
  return j;
}

Json string_array(const std::vector<std::string>& v) {
  Json a = Json::array();
  for (const std::string& s : v) a.push(Json::string(s));
  return a;
}

Json coded_error(const char* code, const std::string& why) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("code", Json::string(code));
  j.set("error", Json::string(why));
  return j;
}

/// The tier of a tiered engine's instance (jit): "native", and the
/// "swap_cycle" once native code runs. Nothing for the other engines.
void set_tier(Json& j, const engine::Instance& inst) {
  const std::optional<engine::Tier> tier = inst.tier();
  if (!tier) return;
  j.set("native", Json::boolean(tier->native));
  if (tier->native) j.set("swap_cycle", Json::number(static_cast<double>(tier->swap_cycle)));
}

/// Reads the count field `name` of `req` into `out`, or `dflt` when the
/// field is absent. Anything but a whole number from 0 to `cap` (a string,
/// a non-finite, negative or fractional value, or one above the cap) is
/// refused: `err` gets the SVC-002 reply naming the field.
bool read_count(const Json& req, const char* name, std::uint64_t dflt,
                std::uint64_t cap, std::uint64_t* out, Json* err) {
  const Json* v = req.get(name);
  if (v == nullptr) {
    *out = dflt;
    return true;
  }
  const double d = v->as_number(-1.0);
  if (d >= 0.0 && d <= static_cast<double>(cap) && d == std::floor(d)) {
    *out = static_cast<std::uint64_t>(d);
    return true;
  }
  *err = coded_error("SVC-002", req.get_string("op") + ": '" + name +
                                    "' must be a whole number from 0 to " +
                                    std::to_string(cap));
  return false;
}

}  // namespace

struct Service::Session {
  std::mutex mu;  ///< serializes operations on this session

  /// How to rebuild this session (fork): the builtin design name, or the
  /// spec-based compile request. `request.design`/`request.diagnostics`
  /// are always null here — fork points them at the child's own objects.
  std::string design_name;
  pipeline::CompileRequest request;

  std::unique_ptr<Design> design;  ///< owned builtin design, when design-based
  pipeline::CompileResult compiled;
  std::vector<std::string> watch;
  diag::DiagEngine diags;

  /// Cycles simulated, which is also the number of probe rows.
  std::uint64_t cycle = 0;
  /// The trace stream, flat: one row of watch.size() probe values (watch
  /// order) per simulated cycle, row r at [r * watch.size(), ...).
  std::vector<double> rows;

  struct Ckpt {
    std::string blob;
    std::uint64_t cycle = 0;
    std::vector<double> rows;
  };
  std::map<std::string, Ckpt> ckpts;
};

Service::Service() = default;
Service::~Service() = default;

std::size_t Service::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::string Service::handle_line(const std::string& line) {
  Json req;
  std::string err;
  if (!Json::parse(line, &req, &err)) return error_json(err).dump();
  if (!req.is_object())
    return error_json("request must be a JSON object").dump();
  try {
    return handle(req).dump();
  } catch (const std::exception& ex) {
    return error_json(ex.what()).dump();
  }
}

Json Service::handle(const Json& req) {
  const std::string op = req.get_string("op");
  if (op == "open") return op_open(req);
  if (op == "run") return op_run(req);
  if (op == "poke") return op_poke(req);
  if (op == "probe") return op_probe(req);
  if (op == "trace") return op_trace(req);
  if (op == "checkpoint") return op_checkpoint(req);
  if (op == "fork") return op_fork(req);
  if (op == "close") return op_close(req);
  if (op == "diag") return op_diag(req);
  if (op == "ping") return op_ping();
  if (op == "shutdown") {
    shutdown_.store(true);
    Json j = ok_json();
    j.set("shutdown", Json::boolean(true));
    return j;
  }
  return error_json("unknown op '" + op +
                    "' (ops: open run poke probe trace checkpoint fork close "
                    "diag ping shutdown)");
}

std::shared_ptr<Service::Session> Service::find_session(const Json& req,
                                                        Json* err) {
  const std::string id = req.get_string("session");
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    *err = error_json("unknown session '" + id + "'");
    return nullptr;
  }
  return it->second;
}

bool Service::reserve_session(const char* op, Json* err) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() + reserved_ >= kMaxSessions) {
    *err = coded_error("SVC-004", std::string(op) + ": the service already keeps " +
                                      std::to_string(kMaxSessions) +
                                      " sessions; close one first");
    return false;
  }
  ++reserved_;
  return true;
}

/// A place reserve_session() granted: add() makes it an open session,
/// and the destructor gives it back otherwise.
class Service::Place {
 public:
  explicit Place(Service& svc) : svc_(svc) {}
  ~Place() {
    if (added_) return;
    const std::lock_guard<std::mutex> lock(svc_.mu_);
    --svc_.reserved_;
  }
  Place(const Place&) = delete;
  Place& operator=(const Place&) = delete;

  /// Register `s` as an open session; returns its id.
  std::string add(std::shared_ptr<Session> s) {
    const std::lock_guard<std::mutex> lock(svc_.mu_);
    --svc_.reserved_;
    added_ = true;
    std::string id = "s" + std::to_string(svc_.next_id_++);
    svc_.sessions_[id] = std::move(s);
    return id;
  }

 private:
  Service& svc_;
  bool added_ = false;
};

Json Service::op_open(const Json& req) {
  pipeline::CompileRequest creq;
  Json err;
  std::uint64_t lanes = 0;
  if (!read_count(req, "lanes", creq.lanes, kMaxOpenLanes, &lanes, &err))
    return err;
  if (!reserve_session("open", &err)) return err;
  Place place(*this);
  creq.lanes = static_cast<unsigned>(lanes);
  creq.engine = req.get_string("engine", "compiled");
  creq.cxx = req.get_string("cxx", "c++");
  creq.workdir = req.get_string("workdir");
  creq.store_dir = req.get_string("store_dir");

  auto sess = std::make_shared<Session>();
  sess->diags.make_thread_safe();  // requests may arrive on any connection

  std::vector<std::string> watch;
  if (const Json* w = req.get("watch"); w != nullptr && w->is_array())
    for (const Json& it : w->items())
      if (it.is_string()) watch.push_back(it.as_string());

  sess->design_name = req.get_string("design");
  if (!sess->design_name.empty()) {
    sess->design = make_design(sess->design_name);
    if (sess->design == nullptr) {
      std::string names;
      for (const std::string& n : design_names())
        names += (names.empty() ? "" : ", ") + n;
      return error_json("unknown design '" + sess->design_name +
                        "' (available: " + names + ")");
    }
    creq.design = &sess->design->scheduler();
    creq.probes = watch.empty() ? sess->design->default_probes() : watch;
  } else {
    creq.spec_text = req.get_string("spec");
    if (creq.spec_text.empty())
      return error_json("open needs 'spec' text or a 'design' name");
  }

  creq.diagnostics = &sess->diags;
  sess->compiled = pipeline::compile(creq);
  creq.diagnostics = nullptr;
  creq.design = nullptr;
  sess->request = std::move(creq);
  if (!sess->compiled.ok)
    return error_json(sess->compiled.error);

  sess->watch = !watch.empty() ? watch : sess->compiled.probes;
  for (const std::string& n : sess->watch)
    if (!sess->compiled.instance->has_net(n))
      return coded_error("SVC-003", "open: engine '" + sess->compiled.engine +
                                        "' has no net '" + n + "' to watch");

  const std::string id = place.add(sess);

  Json j = ok_json();
  j.set("session", Json::string(id));
  j.set("engine", Json::string(sess->compiled.engine));
  j.set("probes", string_array(sess->watch));
  j.set("store_hit", Json::boolean(sess->compiled.store_hit));
  j.set("compile_seconds", Json::number(sess->compiled.compile_seconds));
  if (sess->compiled.spec_based)
    j.set("spec_key",
          Json::string(pipeline::ArtifactStore::hex16(sess->compiled.spec_key)));
  Json stages = Json::array();
  for (const pipeline::StageTiming& st : sess->compiled.stages) {
    Json s = Json::object();
    s.set("stage", Json::string(st.stage));
    s.set("seconds", Json::number(st.seconds));
    stages.push(std::move(s));
  }
  j.set("stages", std::move(stages));
  j.set("cycle", Json::number(0));
  set_tier(j, *sess->compiled.instance);
  return j;
}

Json Service::op_run(const Json& req) {
  Json err;
  std::uint64_t cycles = 0;
  if (!read_count(req, "cycles", 1, kMaxRunCycles, &cycles, &err)) return err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  if (cycles > kMaxSessionRows - sess->cycle)
    return coded_error("SVC-002", "run: 'cycles' would take the session past " +
                                      std::to_string(kMaxSessionRows) + " rows (it has " +
                                      std::to_string(sess->cycle) + ")");

  engine::Instance& inst = *sess->compiled.instance;
  std::vector<double>& rows = sess->rows;
  try {
    for (std::uint64_t c = 0; c < cycles; ++c) {
      inst.cycle();
      for (const std::string& n : sess->watch) rows.push_back(inst.probe(n));
      ++sess->cycle;
    }
  } catch (const std::exception& ex) {
    // A probe that threw may have left part of a row behind.
    rows.resize(sess->cycle * sess->watch.size());
    sess->diags.error("SERVICE-001", "session", ex.what());
    Json j = error_json(ex.what());
    j.set("cycle", Json::number(static_cast<double>(sess->cycle)));
    return j;
  }
  Json j = ok_json();
  j.set("cycle", Json::number(static_cast<double>(sess->cycle)));
  set_tier(j, inst);
  return j;
}

Json Service::op_poke(const Json& req) {
  Json err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  const std::string net = req.get_string("net");
  try {
    sess->compiled.instance->poke(net, req.get_number("value"));
  } catch (const std::exception& ex) {
    return error_json(ex.what());
  }
  return ok_json();
}

Json Service::op_probe(const Json& req) {
  Json err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  const std::string net = req.get_string("net");
  try {
    const double v = sess->compiled.instance->probe(net);
    Json j = ok_json();
    j.set("net", Json::string(net));
    j.set("value", Json::number(v));
    return j;
  } catch (const std::exception& ex) {
    return error_json(ex.what());
  }
}

Json Service::op_trace(const Json& req) {
  Json err;
  std::uint64_t since = 0;
  if (!read_count(req, "since", 0, kMaxTraceSince, &since, &err)) return err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  since = std::min(since, sess->cycle);

  // Each row array is built at its final size: one allocation per row.
  const std::size_t width = sess->watch.size();
  const double* v = sess->rows.data() + since * width;
  std::vector<Json> rows;
  rows.reserve(sess->cycle - since);
  for (std::uint64_t r = since; r < sess->cycle; ++r, v += width) {
    std::vector<Json> row;
    row.reserve(width);
    for (std::size_t k = 0; k < width; ++k) row.push_back(Json::number(v[k]));
    rows.push_back(Json(std::move(row)));
  }
  Json j = ok_json();
  j.set("from", Json::number(static_cast<double>(since)));
  j.set("probes", string_array(sess->watch));
  j.set("rows", Json(std::move(rows)));
  j.set("cycle", Json::number(static_cast<double>(sess->cycle)));
  return j;
}

Json Service::op_checkpoint(const Json& req) {
  Json err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  const std::string name = req.get_string("name", "default");
  if (sess->ckpts.size() >= kMaxCheckpoints && sess->ckpts.count(name) == 0)
    return coded_error("SVC-004", "checkpoint: the session already keeps " +
                                      std::to_string(kMaxCheckpoints) +
                                      " checkpoints; reuse a name");
  std::ostringstream os;
  try {
    if (!sess->compiled.instance->save_state(os))
      return error_json("engine '" + sess->compiled.engine +
                        "' has no in-process snapshot surface");
  } catch (const std::exception& ex) {
    return error_json(ex.what());
  }
  Session::Ckpt ck;
  ck.blob = os.str();
  ck.cycle = sess->cycle;
  ck.rows = sess->rows;
  sess->ckpts[name] = std::move(ck);
  Json j = ok_json();
  j.set("name", Json::string(name));
  j.set("cycle", Json::number(static_cast<double>(sess->cycle)));
  j.set("bytes",
        Json::number(static_cast<double>(sess->ckpts[name].blob.size())));
  return j;
}

Json Service::op_fork(const Json& req) {
  Json err;
  const auto parent = find_session(req, &err);
  if (parent == nullptr) return err;
  if (!reserve_session("fork", &err)) return err;
  Place place(*this);

  auto child = std::make_shared<Session>();
  child->diags.make_thread_safe();
  Session::Ckpt ck;
  {
    const std::lock_guard<std::mutex> lock(parent->mu);
    const std::string from = req.get_string("from", "default");
    const auto it = parent->ckpts.find(from);
    if (it == parent->ckpts.end())
      return error_json("unknown checkpoint '" + from + "'");
    ck = it->second;
    child->design_name = parent->design_name;
    child->request = parent->request;
    child->watch = parent->watch;
  }

  // Rebuild the same request: a spec session recompiles (a store hit for
  // engines with cached artifacts), a design session materializes a fresh
  // builtin design.
  if (!child->design_name.empty()) {
    child->design = make_design(child->design_name);
    child->request.design = &child->design->scheduler();
  }
  child->request.diagnostics = &child->diags;
  child->compiled = pipeline::compile(child->request);
  child->request.diagnostics = nullptr;
  child->request.design = nullptr;
  if (!child->compiled.ok) return error_json(child->compiled.error);

  try {
    std::istringstream is(ck.blob);
    if (!child->compiled.instance->restore_state(is))
      return error_json("engine '" + child->compiled.engine +
                        "' has no in-process snapshot surface");
  } catch (const std::exception& ex) {
    return error_json(ex.what());
  }
  child->cycle = ck.cycle;
  child->rows = std::move(ck.rows);

  const std::string id = place.add(child);
  Json j = ok_json();
  j.set("session", Json::string(id));
  j.set("cycle", Json::number(static_cast<double>(child->cycle)));
  j.set("store_hit", Json::boolean(child->compiled.store_hit));
  set_tier(j, *child->compiled.instance);
  return j;
}

Json Service::op_close(const Json& req) {
  const std::string id = req.get_string("session");
  const std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(id) == 0)
    return error_json("unknown session '" + id + "'");
  return ok_json();
}

Json Service::op_diag(const Json& req) {
  Json err;
  const auto sess = find_session(req, &err);
  if (sess == nullptr) return err;
  const std::lock_guard<std::mutex> lock(sess->mu);
  Json findings = Json::array();
  for (const diag::Diagnostic& d : sess->diags.all()) {
    Json f = Json::object();
    f.set("severity", Json::string(diag::severity_name(d.severity)));
    f.set("code", Json::string(d.code));
    f.set("component", Json::string(d.component));
    f.set("message", Json::string(d.message));
    findings.push(std::move(f));
  }
  Json j = ok_json();
  j.set("findings", std::move(findings));
  return j;
}

Json Service::op_ping() const {
  Json j = ok_json();
  j.set("engines", string_array(engine::Registry::global().names()));
  j.set("designs", string_array(design_names()));
  j.set("sessions", Json::number(static_cast<double>(session_count())));
  return j;
}

}  // namespace asicpp::service
