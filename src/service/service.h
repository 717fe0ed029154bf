// Session-based simulation service.
//
// The paper's environment keeps a designer *interacting* with a live
// design — poking pins, probing nets, snapshotting state — rather than
// re-running batch simulations. This module is that surface as a service:
// a `Session` owns one live engine instance produced by the compile
// pipeline (pipeline/pipeline.h) and supports
//
//   run         advance N cycles
//   poke        drive an external input net
//   probe       read one net's last value
//   trace       stream the probe-row history since a cycle (delta reads)
//   checkpoint  snapshot the engine state under a name
//   fork        open a new session resuming from a named checkpoint
//
// `Service` multiplexes sessions behind a newline-delimited JSON protocol
// (`handle_line`): the `asicpp-serve` daemon speaks it over a Unix socket,
// and tests drive the Service in-process through the same entry point.
// Sessions opened from equal spec text with the same engine and options
// share compile artifacts through the content-addressed ArtifactStore (a
// second jit session of a design the store has seen pays no compiler
// run), and every session accumulates findings in its own DiagEngine, so
// concurrent sessions never interleave diagnostics. A cold jit open does
// not wait for the host compiler: the session cycles on the compiled tape
// from cycle 0 while native code is built in the background, and swaps to
// it at a cycle boundary once it lands (jit/jit.h). The open, run and fork
// replies of a jit session say which code runs: "native", and from the
// swap on "swap_cycle", the first cycle run natively. A build that failed
// (JIT-001..003, e.g. a missing compiler) leaves "native" false and lists
// its finding in the session's diag after the next run.
//
// Protocol (one JSON object per line; responses always carry "ok"):
//
//   {"op":"open","engine":"jit","spec":"spec wl=...\n..."}
//       -> {"ok":true,"session":"s1",...,"store_hit":false,"native":false}
//   {"op":"open","engine":"compiled","design":"quickstart","watch":["y"]}
//       -> {"ok":true,"session":"s1","probes":[...],"store_hit":false,...}
//   {"op":"run","session":"s1","cycles":16}
//       -> {"ok":true,"cycle":16}   (jit: ...,"native":true,"swap_cycle":3)
//   {"op":"poke","session":"s1","net":"x","value":1.5}  -> {"ok":true}
//   {"op":"probe","session":"s1","net":"y"}   -> {"ok":true,"value":0.5}
//   {"op":"trace","session":"s1","since":8}   -> {"ok":true,"from":8,"rows":[...]}
//   {"op":"checkpoint","session":"s1","name":"c1"}      -> {"ok":true,...}
//   {"op":"fork","session":"s1","from":"c1"}  -> {"ok":true,"session":"s2",...}
//   {"op":"diag","session":"s1"}   -> {"ok":true,"findings":[...]}
//   {"op":"close","session":"s1"}  -> {"ok":true}
//   {"op":"ping"}                  -> {"ok":true,"engines":[...],"designs":[...]}
//   {"op":"shutdown"}              -> {"ok":true,"shutdown":true}
//
// Errors come back as {"ok":false,"error":"one line"} — the service never
// throws out of handle_line, and a failed request never kills a session.
// The count fields ("cycles" of run, "since" of trace, "lanes" of open)
// must be whole numbers from 0 to their caps below; any other value is
// answered {"ok":false,"code":"SVC-002","error":...} naming the field, and
// the request does nothing; so is a run that would take the session past
// kMaxSessionRows rows. An open whose "watch" names a net
// the engine does not have is answered {"ok":false,"code":"SVC-003",...}
// and opens no session. An open or fork past kMaxSessions open sessions,
// and a checkpoint under a new name past kMaxCheckpoints in its session,
// is answered {"ok":false,"code":"SVC-004",...} and allocates nothing.
// The asicpp-serve daemon frames
// lines with service::LineBuffer (service/linebuf.h): a line longer than
// kMaxRequestLine (1 MiB) is answered {"ok":false,"code":"SVC-001",
// "error":...} and only that connection is closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/cyclesched.h"
#include "service/json.h"

namespace asicpp::service {

/// Per-request caps on the count fields. A run stores one probe row per
/// cycle, so its cap bounds what one request may allocate (and how long it
/// holds its session); a batched session allocates its state once per lane.
inline constexpr std::uint64_t kMaxRunCycles = 1'000'000;  ///< run "cycles"
inline constexpr std::uint64_t kMaxOpenLanes = 1024;       ///< open "lanes"
/// trace "since": a double holds every whole number up to 2^53 exactly.
inline constexpr std::uint64_t kMaxTraceSince = std::uint64_t{1} << 53;
/// Probe rows a session keeps across all its runs (one row per cycle): a
/// run that would take it past this is refused with SVC-002.
inline constexpr std::uint64_t kMaxSessionRows = 4'000'000;
/// Sessions a service keeps open at once: an open or fork past it is
/// refused with SVC-004 before anything is built.
inline constexpr std::size_t kMaxSessions = 256;
/// Named checkpoints one session keeps (each holds a snapshot and a copy
/// of the session's rows): a checkpoint under a new name past it is
/// refused with SVC-004; an existing name is still overwritten.
inline constexpr std::size_t kMaxCheckpoints = 16;

/// A built-in interactive design the service can open by name (sessions
/// opened from spec text don't need one). The object owns the clock, the
/// scheduler and every component.
class Design {
 public:
  virtual ~Design() = default;
  virtual sched::CycleScheduler& scheduler() = 0;
  /// Nets worth watching by default (the session's probe rows).
  virtual std::vector<std::string> default_probes() const = 0;
};

/// Factory for the built-in designs: "quickstart" (the 2-tap moving
/// average of examples/quickstart.cpp; input "x", output "y") and "dect"
/// (the DECT burst-mode transceiver; pins "sample" / "hold_request").
/// nullptr for unknown names.
std::unique_ptr<Design> make_design(const std::string& name);
std::vector<std::string> design_names();

class Service {
 public:
  Service();
  ~Service();

  /// Handle one protocol line; always returns a one-line JSON response.
  /// Thread-safe: the daemon calls this from one thread per connection.
  std::string handle_line(const std::string& line);

  /// True once a shutdown request was handled.
  bool shutdown_requested() const { return shutdown_.load(); }

  std::size_t session_count() const;

 private:
  struct Session;

  Json handle(const Json& req);
  std::shared_ptr<Session> find_session(const Json& req, Json* err);
  class Place;  // a session place held while a session is built (service.cpp)
  /// Hold one of the kMaxSessions places for a session being built; false
  /// (and `err` gets the SVC-004 reply) when none is left.
  bool reserve_session(const char* op, Json* err);

  Json op_open(const Json& req);
  Json op_run(const Json& req);
  Json op_poke(const Json& req);
  Json op_probe(const Json& req);
  Json op_trace(const Json& req);
  Json op_checkpoint(const Json& req);
  Json op_fork(const Json& req);
  Json op_close(const Json& req);
  Json op_diag(const Json& req);
  Json op_ping() const;

  mutable std::mutex mu_;  ///< guards sessions_ / next_id_ / reserved_
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;
  std::size_t reserved_ = 0;  ///< places held by sessions being built
  std::atomic<bool> shutdown_{false};
};

}  // namespace asicpp::service
