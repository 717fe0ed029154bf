// Stimuli / response recording.
//
// "During system simulation, the system stimuli are also translated into
// test-benches that allow to verify the synthesis result of each
// component" (section 6). The Recorder hooks the cycle scheduler and logs
// the per-cycle value of selected nets; the HDL testbench generator and the
// netlist equivalence checker replay these traces.
//
// A Recorder is single-owner: the cycle-end hook appends to plain vectors,
// so one recorder belongs to one simulation thread. The hook asserts this
// (PAR-002) — parallel fuzz lanes each build their own scheduler and
// recorder, which is the supported pattern.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "sched/cyclesched.h"

namespace asicpp::sim {

class Recorder {
 public:
  /// Installs a cycle-end hook on `sched`. The Recorder must outlive the
  /// scheduler's remaining use.
  explicit Recorder(sched::CycleScheduler& sched);

  /// Start logging net `net_name` (its `last()` value each cycle).
  void watch(const std::string& net_name);

  struct Trace {
    std::string net;
    std::vector<double> values;  ///< one sample per recorded cycle
    std::vector<bool> valid;     ///< token present that cycle
  };

  const std::vector<Trace>& traces() const { return traces_; }
  const Trace& trace(const std::string& net_name) const;
  std::uint64_t cycles_recorded() const { return cycles_; }
  void clear();

  // --- checkpoint/restore (see ckpt/snapshot.h) ---

  /// Content hash over the watched-net list (order-sensitive).
  std::uint64_t state_hash() const;
  /// Serialize the recording position: every watched net's sample history
  /// and the recorded-cycle count.
  void save_state(std::ostream& os) const;
  /// Restore a save_state() snapshot. Throws ckpt::SnapshotError with a
  /// CKPT-001..004 diagnostic on mismatch or corruption; the traces are
  /// replaced only after the whole stream parsed.
  void restore_state(std::istream& is);

 private:
  sched::CycleScheduler* sched_;
  std::vector<const sched::Net*> nets_;
  std::vector<Trace> traces_;
  std::uint64_t cycles_ = 0;
  std::atomic<std::thread::id> owner_{};  ///< first recording thread
};

}  // namespace asicpp::sim
