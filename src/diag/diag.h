// Structured diagnostics engine.
//
// The environment is pitched as a *programming* environment: designers are
// supposed to debug hardware with software tooling (sections 1 and 4). That
// only works when the tools degrade gracefully — a broken design should
// produce one report listing every violation, a deadlocked simulation
// should produce a post-mortem naming the blocked components and the
// dependency cycle, and a runaway run should be stopped by a watchdog
// instead of spinning forever. This module is the common substrate:
//
//   Diagnostic  — one finding: severity, a stable code ("SFG-001"), the
//                 component path it concerns, the clock cycle (when
//                 cycle-related), a message, and attached notes (dependency
//                 cycles, queue snapshots, last-known values).
//   DiagEngine  — accumulates Diagnostics across passes and pretty-prints
//                 a report; the recovery policy is accumulate-and-continue
//                 with an optional error limit.
//   Error       — exception carrying a structured Diagnostic, for failures
//                 that cannot be deferred (a deadlocked cycle cannot
//                 continue). ElabError is the elaboration-time variant and
//                 derives std::invalid_argument, matching the historical
//                 contract of the elaboration entry points.
//
// Stable code registry (documented in DESIGN.md):
//   SFG-001 dangling input          SFG-002 dead code (unused input)
//   SFG-003 duplicate output port   SFG-004 double register assignment
//   SFG-005 width mismatch          SFG-006 registers on multiple clocks
//   FSM-001 no initial state        FSM-002 unreachable state
//   FSM-003 shadowed transition     FSM-004 sink state
//   FSM-005 guard on raw input      FSM-006 incomplete transition
//   SCHED-001 combinational deadlock (cycle scheduler / compiled sim)
//   SCHED-002 schedule invalidated (level walk missed or unlevelizable
//             system under ScheduleMode::kLevelized; iterative fallback)
//   DF-001  dataflow deadlock       DF-002 stranded tokens at quiescence
//   WATCHDOG-001 cycle/firing budget exhausted
//   WATCHDOG-002 wall-clock limit exceeded
//   ELAB-001 impure untimed block in RT elaboration
//   SYN-001..SYN-009 system-synthesis elaboration errors
//   SIM-001 unsupported component in compiled simulation
//   VERIFY-001..VERIFY-006 differential verification (see verify/diffrun.h)
//   CKPT-001..CKPT-004 snapshot restore failures (see ckpt/snapshot.h)
//   PAR-001 nested parallel region (see par/pool.h)
//   PAR-002 single-owner object used from a second thread
//   LIB-001 truncated Liberty source   LIB-002 duplicate cell definition
//   LIB-003 malformed Liberty attribute
//   LIB-004 GateType with no library cell (see flow/liberty.h)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace asicpp::diag {

enum class Severity {
  kNote,     ///< informational
  kWarning,  ///< suspicious but simulable
  kError,    ///< design-rule violation; elaboration should not proceed
  kFatal,    ///< the run cannot continue (deadlock, watchdog)
};

const char* severity_name(Severity s);

/// Sentinel for "not related to a particular clock cycle".
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;                ///< stable, greppable: "SFG-001"
  std::string component;           ///< object path: "sfg 'avg'", "component 'dp3'"
  std::uint64_t cycle = kNoCycle;  ///< clock cycle, when cycle-related
  std::string message;             ///< one-line human description
  std::vector<std::string> notes;  ///< attached context, one line each

  Diagnostic& note(std::string line) {
    notes.push_back(std::move(line));
    return *this;
  }

  /// Pretty one-record rendering:
  ///   "error [SFG-001] sfg 'avg': dangling input ...\n    note: ..."
  std::string str() const;
};

/// Accumulates diagnostics across lint passes and simulation runs. The
/// recovery policy is accumulate-and-continue: checks report *all* findings
/// in one run and the caller grades the engine afterwards (mirroring how
/// AssertionMonitor collects violations for post-run grading). A hard
/// error limit turns pathological cascades into a structured Error.
class DiagEngine {
 public:
  DiagEngine() = default;
  // Copyable so engines can live inside value-semantic owners (e.g. the
  // compiled simulator); a copy gets its own mutex (when thread-safe) and
  // a fresh owner-thread claim.
  DiagEngine(const DiagEngine& o)
      : diags_(o.diags_),
        error_limit_(o.error_limit_),
        mu_(o.mu_ != nullptr ? std::make_unique<std::mutex>() : nullptr) {}
  DiagEngine& operator=(const DiagEngine& o) {
    if (this == &o) return *this;
    diags_ = o.diags_;
    error_limit_ = o.error_limit_;
    mu_ = o.mu_ != nullptr ? std::make_unique<std::mutex>() : nullptr;
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    return *this;
  }

  /// Record a fully formed diagnostic. Returns a reference to the stored
  /// record so callers can attach notes. Throws Error when the error limit
  /// is exceeded.
  ///
  /// An engine is single-owner by default: the first thread to report
  /// claims it, and a report from any other thread throws a PAR-002 Error
  /// (give each worker its own engine and merge afterwards, the pattern
  /// diff_run_batch uses). make_thread_safe() opts a shared sink into a
  /// per-engine mutex instead.
  Diagnostic& report(Diagnostic d);

  // Convenience constructors for the common severities.
  Diagnostic& note(std::string code, std::string component, std::string message);
  Diagnostic& warning(std::string code, std::string component, std::string message);
  Diagnostic& error(std::string code, std::string component, std::string message);
  Diagnostic& fatal(std::string code, std::string component, std::string message);

  const std::vector<Diagnostic>& all() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }

  std::size_t count(Severity s) const;
  std::size_t errors() const;  ///< kError + kFatal
  std::size_t warnings() const { return count(Severity::kWarning); }

  /// True when no error- or fatal-severity diagnostic was reported.
  bool ok() const { return errors() == 0; }

  /// First diagnostic with `code`, or nullptr.
  const Diagnostic* find(const std::string& code) const;
  bool has(const std::string& code) const { return find(code) != nullptr; }

  /// Full pretty-printed report: every record plus a summary line.
  std::string str() const;

  /// Throw Error carrying the first error-severity diagnostic (with the
  /// full report attached as a note) when any error was accumulated.
  void throw_if_errors() const;

  /// Abort accumulation with Error once more than `n` errors pile up
  /// (0 = unlimited, the default).
  void set_error_limit(std::size_t n) { error_limit_ = n; }

  /// Serialize report() calls with a per-engine mutex so several worker
  /// threads can share this engine as a sink. Caveats: references returned
  /// by report() are stable only until the next report — a concurrent
  /// reporter may grow the record vector, so under sharing callers must
  /// pass fully formed Diagnostics and drop the reference; the read
  /// accessors (all(), str(), ...) stay unsynchronized and belong after
  /// the workers join. Irreversible.
  void make_thread_safe() {
    if (mu_ == nullptr) mu_ = std::make_unique<std::mutex>();
  }
  bool thread_safe() const { return mu_ != nullptr; }

  void clear() {
    diags_.clear();
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

 private:
  Diagnostic& report_locked(Diagnostic d);

  std::vector<Diagnostic> diags_;
  std::size_t error_limit_ = 0;
  std::unique_ptr<std::mutex> mu_;  ///< set by make_thread_safe()
  std::atomic<std::thread::id> owner_{};  ///< first reporting thread
};

/// Find a directed cycle in the graph given by per-node successor lists.
/// Returns the node sequence of one cycle (closed: front() == back()), or
/// an empty vector when the graph is acyclic. Shared by the SCHED-001
/// post-mortem and the levelizer's cycle report (sched/).
std::vector<int> find_cycle(const std::vector<std::vector<int>>& adj);

}  // namespace asicpp::diag

namespace asicpp {

/// Exception carrying a structured diagnostic. what() is the pretty-printed
/// record, so uncaught errors still read well; structured consumers catch
/// asicpp::Error and inspect diagnostic().
class Error : public std::runtime_error {
 public:
  explicit Error(diag::Diagnostic d)
      : std::runtime_error(d.str()), diag_(std::move(d)) {}

  const diag::Diagnostic& diagnostic() const noexcept { return diag_; }
  const std::string& code() const noexcept { return diag_.code; }

 private:
  diag::Diagnostic diag_;
};

/// Elaboration-time variant for invalid input designs. Derives
/// std::invalid_argument so pre-existing catch sites keep working.
class ElabError : public std::invalid_argument {
 public:
  explicit ElabError(diag::Diagnostic d)
      : std::invalid_argument(d.str()), diag_(std::move(d)) {}

  const diag::Diagnostic& diagnostic() const noexcept { return diag_; }
  const std::string& code() const noexcept { return diag_.code; }

 private:
  diag::Diagnostic diag_;
};

}  // namespace asicpp
