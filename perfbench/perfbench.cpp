// perfbench: the end-to-end benchmark of asicpp.
//
//   perfbench --workload pipeline|service --seed N --seconds S
//             --trace 0|1 --scratch DIR
//
// Both workloads replay one session script on the service's built-in
// designs (the quickstart moving average and the DECT transceiver) on
// every engine that binds a live design: iterative, levelized, compiled
// and jit. `pipeline` drives the library directly (pipeline::compile, then
// the engine instance); `service` sends the same requests as protocol
// lines through an in-process service::Service, as a client sees it.
//
// A workload is set up three times from scratch (setup_s is the median),
// then rounds run in a closed loop — the next round starts when the
// previous one has finished — for S seconds. A round is one session per
// (design, engine) pair; every session checks its trace against the
// design's iterative reference and its fork against the parent. A wrong
// output or an exception fails the round. The last line of stdout is one
// JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --trace 0 reports the end-to-end metrics: simulated cycles per second over
// the whole measured window (opens, checkpoints, forks and trace reads count
// in the wall time) and the median set-up time. A round does a fixed number
// of cycles, so a round latency would carry the same information; its
// median also swings with the speed phases of a shared host more than the
// window's mean does, so it is not reported. --trace 1 times every call the
// client makes (front end, compile, cycle, observe, snapshot, check) and
// reports per-layer metrics instead. Every file the run creates (artifact
// stores, compiler temporaries) goes under --scratch.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "pipeline/pipeline.h"
#include "service/json.h"
#include "service/service.h"

using namespace asicpp;

namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<double>>;
using service::Json;

constexpr int kSetups = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- per-layer accounting ----------------------------------------------------

/// Busy time and units of work of one layer.
struct Acc {
  double seconds = 0.0;
  double units = 0.0;
};

/// Named layer accumulators; only a traced run records into them. Layers:
/// "frontend", "compile", "cycle.<engine>", "observe", "snapshot", "check",
/// and "control" (pokes and closes).
class Layers {
 public:
  explicit Layers(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// The reference stays valid: std::map nodes never move.
  Acc& at(const std::string& layer) { return acc_[layer]; }
  const std::map<std::string, Acc>& all() const { return acc_; }
  void reset() {
    for (auto& [name, a] : acc_) a = Acc{};
  }

 private:
  bool on_;
  std::map<std::string, Acc> acc_;
};

/// Times one call into a layer; inert in an untraced run.
class Span {
 public:
  Span(const Layers& layers, Acc& acc, double units = 1.0)
      : acc_(layers.on() ? &acc : nullptr), units_(units) {
    if (acc_ != nullptr) t0_ = Clock::now();
  }
  ~Span() {
    if (acc_ != nullptr) {
      acc_->seconds += seconds_since(t0_);
      acc_->units += units_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Acc* acc_;
  double units_;
  Clock::time_point t0_{};
};

// --- clients: the library directly, or the service's line protocol ---------

/// One session of the script: which built-in design on which engine.
struct Open {
  std::string design;
  std::string engine;
};

/// The session operations of the service protocol. Handles are session ids.
class Client {
 public:
  explicit Client(Layers& layers) : layers_(layers) {}
  virtual ~Client() = default;
  /// Drop every session and use `dir` for stores and compiler temporaries.
  virtual void reset(const std::string& dir) = 0;
  /// Returns the session id; `store_hit` tells whether the compile artifact
  /// came from the artifact store.
  virtual std::string open(const Open& o, bool* store_hit) = 0;
  virtual void poke(const std::string& sid, const std::string& net, double v) = 0;
  virtual void run(const std::string& sid, const std::string& engine, int n) = 0;
  /// Append the probe rows from cycle `since` on to `rows`.
  virtual void trace(const std::string& sid, std::size_t since, Rows* rows) = 0;
  virtual void checkpoint(const std::string& sid) = 0;
  /// A new session resumed from the last checkpoint of `sid`.
  virtual std::string fork(const std::string& sid, bool* store_hit) = 0;
  virtual void close(const std::string& sid) = 0;

 protected:
  Layers& layers_;
};

/// The library path: pipeline::compile binds the design, the engine
/// instance is stepped and probed directly. Sessions keep what a service
/// session keeps (probe rows, the checkpoint and the rows up to it), and a
/// fork rebuilds the request and restores the snapshot, as the service does.
class PipelineClient : public Client {
 public:
  using Client::Client;

  void reset(const std::string& dir) override {
    dir_ = dir;
    sessions_.clear();
  }

  std::string open(const Open& o, bool* store_hit) override {
    Session s;
    s.name = o.design;
    s.req.engine = o.engine;
    s.req.store_dir = dir_ + "/store";
    s.req.workdir = dir_;
    build(s);
    s.req.probes = s.design->default_probes();
    bind(s, store_hit);
    const std::string sid = "s" + std::to_string(next_++);
    sessions_[sid] = std::move(s);
    return sid;
  }

  void poke(const std::string& sid, const std::string& net, double v) override {
    Span s(layers_, layers_.at("control"));
    at(sid).res.instance->poke(net, v);
  }

  void run(const std::string& sid, const std::string& engine, int n) override {
    Session& s = at(sid);
    engine::Instance& inst = *s.res.instance;
    const std::vector<std::string>& probes = s.res.probes;
    Acc& cyc = layers_.at("cycle." + engine);
    Acc& obs = layers_.at("observe");
    for (int c = 0; c < n; ++c) {
      {
        Span sp(layers_, cyc);
        inst.cycle();
      }
      Span sp(layers_, obs, static_cast<double>(probes.size()));
      std::vector<double> row;
      row.reserve(probes.size());
      for (const std::string& p : probes) row.push_back(inst.probe(p));
      s.rows.push_back(std::move(row));
    }
  }

  void trace(const std::string& sid, std::size_t since, Rows* rows) override {
    Span sp(layers_, layers_.at("observe"), 0.0);
    const Rows& all = at(sid).rows;
    rows->insert(rows->end(), all.begin() + static_cast<long>(since), all.end());
  }

  void checkpoint(const std::string& sid) override {
    Span sp(layers_, layers_.at("snapshot"));
    Session& s = at(sid);
    std::ostringstream os;
    if (!s.res.instance->save_state(os))
      throw std::runtime_error(s.req.engine + " has no snapshot surface");
    s.blob = os.str();
    s.ckpt_rows = s.rows;
  }

  std::string fork(const std::string& sid, bool* store_hit) override {
    const Session& parent = at(sid);
    Session s;
    s.name = parent.name;
    s.req.engine = parent.req.engine;
    s.req.store_dir = parent.req.store_dir;
    s.req.workdir = parent.req.workdir;
    s.req.probes = parent.req.probes;
    s.rows = parent.ckpt_rows;
    const std::string blob = parent.blob;
    build(s);
    bind(s, store_hit);
    {
      Span sp(layers_, layers_.at("snapshot"));
      std::istringstream is(blob);
      s.res.instance->restore_state(is);
    }
    const std::string cid = "s" + std::to_string(next_++);
    sessions_[cid] = std::move(s);
    return cid;
  }

  void close(const std::string& sid) override {
    Span sp(layers_, layers_.at("control"));
    sessions_.erase(sid);
  }

 private:
  struct Session {
    std::string name;
    std::unique_ptr<service::Design> design;
    pipeline::CompileRequest req;
    pipeline::CompileResult res;
    Rows rows;
    std::string blob;
    Rows ckpt_rows;
  };

  Session& at(const std::string& sid) { return sessions_.at(sid); }

  /// A fresh instance of the built-in design.
  void build(Session& s) {
    Span sp(layers_, layers_.at("frontend"), 0.0);
    s.design = service::make_design(s.name);
    if (s.design == nullptr) throw std::runtime_error("unknown design " + s.name);
    s.req.design = &s.design->scheduler();
  }

  void bind(Session& s, bool* store_hit) {
    {
      Span sp(layers_, layers_.at("compile"));
      s.res = pipeline::compile(s.req);
    }
    if (!s.res.ok) throw std::runtime_error(s.res.error);
    *store_hit = s.res.store_hit;
  }

  std::string dir_;
  std::map<std::string, Session> sessions_;
  std::uint64_t next_ = 1;
};

/// The protocol path: every request is a JSON line through
/// Service::handle_line, and every reply is decoded, as a client sees it.
/// Encoding and decoding count as the front end; a run request (which
/// probes every cycle inside the service) counts as cycle time.
class ServiceClient : public Client {
 public:
  using Client::Client;

  void reset(const std::string& dir) override {
    dir_ = dir;
    svc_ = std::make_unique<service::Service>();
  }

  std::string open(const Open& o, bool* store_hit) override {
    Json j = Json::object();
    j.set("op", Json::string("open"));
    j.set("design", Json::string(o.design));
    j.set("engine", Json::string(o.engine));
    j.set("store_dir", Json::string(dir_ + "/store"));
    j.set("workdir", Json::string(dir_));
    const Json r = call(j, layers_.at("compile"));
    *store_hit = r.get_bool("store_hit");
    return r.get_string("session");
  }

  void poke(const std::string& sid, const std::string& net, double v) override {
    Json j = request("poke", sid);
    j.set("net", Json::string(net));
    j.set("value", Json::number(v));
    call(j, layers_.at("control"));
  }

  void run(const std::string& sid, const std::string& engine, int n) override {
    Json j = request("run", sid);
    j.set("cycles", Json::number(n));
    call(j, layers_.at("cycle." + engine), n);
  }

  void trace(const std::string& sid, std::size_t since, Rows* rows) override {
    Json j = request("trace", sid);
    j.set("since", Json::number(static_cast<double>(since)));
    Acc& obs = layers_.at("observe");
    const Json r = call(j, obs, 0.0);
    double values = 0.0;
    if (const Json* arr = r.get("rows"))
      for (const Json& row : arr->items()) {
        std::vector<double> v;
        for (const Json& x : row.items()) v.push_back(x.as_number());
        values += static_cast<double>(v.size());
        rows->push_back(std::move(v));
      }
    if (layers_.on()) obs.units += values;
  }

  void checkpoint(const std::string& sid) override {
    call(request("checkpoint", sid), layers_.at("snapshot"));
  }

  std::string fork(const std::string& sid, bool* store_hit) override {
    const Json r = call(request("fork", sid), layers_.at("compile"));
    *store_hit = r.get_bool("store_hit");
    return r.get_string("session");
  }

  void close(const std::string& sid) override {
    call(request("close", sid), layers_.at("control"));
  }

 private:
  static Json request(const std::string& op, const std::string& sid) {
    Json j = Json::object();
    j.set("op", Json::string(op));
    j.set("session", Json::string(sid));
    return j;
  }

  /// One round trip: encode, handle, decode. The service time is charged
  /// to `layer`, encoding and decoding to the front end.
  Json call(const Json& req, Acc& layer, double units = 1.0) {
    Acc& fe = layers_.at("frontend");
    std::string line;
    {
      Span s(layers_, fe, 0.0);
      line = req.dump();
    }
    std::string reply;
    {
      Span s(layers_, layer, units);
      reply = svc_->handle_line(line);
    }
    Json out;
    std::string err;
    {
      Span s(layers_, fe, 0.0);
      if (!Json::parse(reply, &out, &err))
        throw std::runtime_error("unparseable reply: " + err);
    }
    if (!out.get_bool("ok"))
      throw std::runtime_error(req.get_string("op") + ": " +
                               out.get_string("error"));
    return out;
  }

  std::string dir_;
  std::unique_ptr<service::Service> svc_;
};

// --- the session script ------------------------------------------------------

/// The engines that bind a live design in process. (batched instantiates
/// spec text only; cppgen and gates have no poke surface.)
const std::vector<std::string> kEngines = {"iterative", "levelized", "compiled",
                                           "jit"};
constexpr int kRounds = 4;
constexpr int kRunCycles = 2500;  // 10k cycles before the checkpoint
constexpr int kTailCycles = 100;

/// One built-in design with its pins, the values the script pokes into
/// them each round, and its reference trace.
struct Design {
  std::string name;
  std::vector<std::string> pins;
  std::vector<std::vector<double>> pokes;  ///< [round][pin]
  Rows ref;
};

class Workload {
 public:
  Workload(Layers& layers, std::unique_ptr<Client> client, unsigned seed)
      : layers_(layers), client_(std::move(client)), seed_(seed) {}

  /// Build everything the measured loop needs from scratch, keeping every
  /// file under `dir`: the seeded pokes, each design's reference trace from
  /// an iterative session, and the jit images compiled into a fresh store,
  /// so the measured jit sessions open warm.
  void setup(const std::string& dir) {
    client_->reset(dir);
    std::mt19937_64 rng(seed_);
    designs_.clear();
    // The quickstart input is 12-bit with 3 integer bits: multiples of
    // 2^-8 inside [-2, 2) are exact.
    designs_.push_back(make_design("quickstart", {"x"}, [&](std::size_t) {
      return static_cast<double>(static_cast<int>(rng() % 1024) - 512) / 256.0;
    }));
    // DECT is driven through hold_request, set in the second round of the
    // four. The schedule is fixed, not drawn from the seed: how much
    // datapath work a round steps depends on when and how often the chip
    // is held, so a seeded schedule would make the round's cost depend on
    // the seed. Its sample pin idles at zero: the compiled and jit images
    // take pokes by SFG input name, and the datapath input bound to the
    // sample net has another name, so only the iterative engines could
    // poke it.
    std::size_t round = 0;
    designs_.push_back(make_design("dect", {"hold_request"}, [&](std::size_t) {
      return round++ == 1 ? 1.0 : 0.0;
    }));
    for (Design& d : designs_) {
      Rows rows, tail;
      if (!session(d, "iterative", &rows, &tail) ||
          tail != Rows(rows.end() - kTailCycles, rows.end()))
        throw std::runtime_error("reference session failed for " + d.name);
      d.ref = std::move(rows);
      bool hit = true;
      const std::string sid = client_->open({d.name, "jit"}, &hit);
      client_->close(sid);
      if (hit) throw std::runtime_error("jit image was stored before setup");
    }
  }

  /// One round: a session per design and engine.
  bool op() {
    bool ok = true;
    for (const Design& d : designs_)
      for (const std::string& eng : kEngines) {
        Rows parent, child_tail;
        if (!session(d, eng, &parent, &child_tail)) {
          ok = false;
          continue;
        }
        Span s(layers_, layers_.at("check"));
        const bool same = parent == d.ref &&
                          child_tail == Rows(parent.end() - kTailCycles, parent.end());
        if (!same)
          std::fprintf(stderr, "%s on %s: trace differs from the reference\n",
                       d.name.c_str(), eng.c_str());
        ok = ok && same;
      }
    return ok;
  }

  std::uint64_t cycles = 0;      ///< simulated cycles stepped
  std::uint64_t compiles = 0;    ///< design -> live instance builds
  std::uint64_t store_hits = 0;  ///< builds served from the artifact store

 private:
  template <class Value>
  static Design make_design(const std::string& name,
                            const std::vector<std::string>& pins, Value value) {
    Design d;
    d.name = name;
    d.pins = pins;
    d.pokes.resize(kRounds);
    for (auto& round : d.pokes)
      for (std::size_t k = 0; k < pins.size(); ++k) round.push_back(value(k));
    return d;
  }

  void poke(const std::string& sid, const Design& d,
            const std::vector<double>& values) {
    for (std::size_t k = 0; k < d.pins.size(); ++k)
      client_->poke(sid, d.pins[k], values[k]);
  }

  void run(const std::string& sid, const std::string& engine, int n) {
    client_->run(sid, engine, n);
    cycles += static_cast<std::uint64_t>(n);
  }

  void count(bool store_hit) {
    ++compiles;
    store_hits += store_hit ? 1 : 0;
  }

  /// The script of the CI service smoke test, scaled up: rounds of
  /// poke/run/trace, a checkpoint, the parent's tail, a fork from the
  /// checkpoint, the child's tail, close both.
  bool session(const Design& d, const std::string& engine, Rows* parent,
               Rows* child_tail) {
    try {
      bool hit = false;
      const std::string sid = client_->open({d.name, engine}, &hit);
      count(hit);
      for (int r = 0; r < kRounds; ++r) {
        poke(sid, d, d.pokes[static_cast<std::size_t>(r)]);
        run(sid, engine, kRunCycles);
        client_->trace(sid, parent->size(), parent);
      }
      client_->checkpoint(sid);
      const std::size_t mark = parent->size();
      // Pin values live on the design, outside the engine snapshot, so
      // both sides drive the last round's values again after it.
      poke(sid, d, d.pokes.back());
      run(sid, engine, kTailCycles);
      client_->trace(sid, mark, parent);

      const std::string cid = client_->fork(sid, &hit);
      count(hit);
      poke(cid, d, d.pokes.back());
      run(cid, engine, kTailCycles);
      client_->trace(cid, mark, child_tail);
      client_->close(cid);
      client_->close(sid);
      return true;
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s on %s: %s\n", d.name.c_str(), engine.c_str(),
                   ex.what());
      return false;
    }
  }

  Layers& layers_;
  std::unique_ptr<Client> client_;
  unsigned seed_;
  std::vector<Design> designs_;
};

// --- driver ------------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[192];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name, ms[i].value, ms[i].unit);
    out += buf;
  }
  return out + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pipeline|service --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch;
  unsigned seed = 0;
  double seconds = 0.0;
  int trace = -1;
  if (argc % 2 != 1) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = static_cast<unsigned>(std::stoul(value));
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace = std::stoi(value);
      else if (flag == "--scratch") scratch = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (scratch.empty() || !(seconds > 0.0) || (trace != 0 && trace != 1))
    return usage();

  Layers layers(trace == 1);
  std::unique_ptr<Client> client;
  if (workload == "pipeline") client = std::make_unique<PipelineClient>(layers);
  else if (workload == "service") client = std::make_unique<ServiceClient>(layers);
  else return usage();
  Workload w(layers, std::move(client), seed);

  std::vector<double> setups;
  try {
    for (int r = 0; r < kSetups; ++r) {
      const std::string dir = scratch + "/setup" + std::to_string(r);
      std::filesystem::create_directories(dir);
      const auto t0 = Clock::now();
      w.setup(dir);
      setups.push_back(seconds_since(t0));
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s setup failed: %s\n", workload.c_str(),
                 ex.what());
    return 1;
  }
  layers.reset();
  w.cycles = w.compiles = w.store_hits = 0;

  std::uint64_t attempted = 0, failed = 0;
  const auto t0 = Clock::now();
  while (attempted == 0 || seconds_since(t0) < seconds) {
    ++attempted;
    failed += w.op() ? 0 : 1;
  }
  const double window = seconds_since(t0);

  std::vector<Metric> ms;
  if (trace == 0) {
    ms = {{"cycles_per_s", static_cast<double>(w.cycles) / window, "1/s"},
          {"setup_s", median(setups), "s"}};
  } else {
    const auto per_unit = [&](const std::string& layer, double scale) {
      const Acc& a = layers.at(layer);
      return a.units > 0.0 ? a.seconds / a.units * scale : 0.0;
    };
    const auto per_op = [&](const std::string& layer) {
      return layers.at(layer).seconds / static_cast<double>(attempted) * 1e3;
    };
    Acc cyc;
    for (const auto& [name, a] : layers.all())
      if (name.rfind("cycle.", 0) == 0) {
        cyc.seconds += a.seconds;
        cyc.units += a.units;
      }
    ms = {{"frontend_ms", per_op("frontend"), "ms"},
          {"compile_ms", per_unit("compile", 1e3), "ms"},
          {"cycle_ns", cyc.units > 0.0 ? cyc.seconds / cyc.units * 1e9 : 0.0, "ns"},
          {"cycle_ns_iterative", per_unit("cycle.iterative", 1e9), "ns"},
          {"cycle_ns_levelized", per_unit("cycle.levelized", 1e9), "ns"},
          {"cycle_ns_compiled", per_unit("cycle.compiled", 1e9), "ns"},
          {"cycle_ns_jit", per_unit("cycle.jit", 1e9), "ns"},
          {"observe_ns", per_unit("observe", 1e9), "ns"},
          {"snapshot_ms", per_unit("snapshot", 1e3), "ms"},
          {"check_ms", per_op("check"), "ms"},
          {"compiles", static_cast<double>(w.compiles), "count"},
          {"store_hits", static_cast<double>(w.store_hits), "count"}};
  }
  std::fprintf(stderr,
               "perfbench: %s seed %u: %llu rounds (%llu failed) in %.2f s, "
               "%llu cycles; setups %.3f %.3f %.3f s\n",
               workload.c_str(), seed,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), window,
               static_cast<unsigned long long>(w.cycles), setups[0], setups[1],
               setups[2]);
  std::printf("%s\n", json_line(failed == 0, attempted, failed, ms).c_str());
  return 0;
}
