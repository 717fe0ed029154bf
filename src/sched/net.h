// System interconnect nets.
//
// Components exchange data signals over the system interconnect (Fig 6).
// A Net carries at most one token per clock cycle; reading is broadcast
// (any number of components may read the token), and the token is cleared
// at the start of the next cycle. An external drive models a chip pin such
// as `hold_request`: it re-arms the net with a value every cycle until
// changed or released.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "fixpt/fixed.h"

namespace asicpp::ckpt {
class Writer;
class Reader;
}  // namespace asicpp::ckpt

namespace asicpp::sched {

class Net {
 public:
  explicit Net(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  bool has_token() const { return has_token_; }

  const fixpt::Fixed& token() const { return value_; }

  /// Place this cycle's token. A second put in the same cycle is a bus
  /// conflict and throws.
  void put(const fixpt::Fixed& v) {
    if (has_token_) conflict();
    value_ = v;
    has_token_ = true;
  }

  /// Most recent token value, surviving across cycles (for probing).
  const fixpt::Fixed& last() const { return value_; }

  /// Persistently drive the net each cycle (external pin).
  void drive(const fixpt::Fixed& v) {
    external_ = v;
    drive_changed();
  }
  void release() {
    external_.reset();
    drive_changed();
  }
  bool driven() const { return external_.has_value(); }
  /// Value of the external drive; only meaningful when driven().
  const fixpt::Fixed& drive_value() const { return *external_; }

  /// Process-wide count of drive changes (drive, release, restore) on any
  /// net. Engines that copy the pin drives each cycle (sim::LaneDriver)
  /// read the nets again only when it moved.
  static std::uint64_t drive_changes() { return drive_changes_.load(std::memory_order_relaxed); }

  /// Scheduler-internal: start a new cycle — drop the old token, re-arm
  /// from the external drive when present.
  void begin_cycle() {
    has_token_ = external_.has_value();
    if (has_token_) value_ = *external_;
  }

  /// Checkpoint: serialize / restore the per-net state (last value, token
  /// flag, external drive). The name is written too, as a restore-time
  /// cross-check against the snapshot's net ordering.
  void save_state(ckpt::Writer& w) const;
  void restore_state(ckpt::Reader& r);

 private:
  [[noreturn]] void conflict() const;
  static void drive_changed() { drive_changes_.fetch_add(1, std::memory_order_relaxed); }

  static inline std::atomic<std::uint64_t> drive_changes_{0};

  std::string name_;
  fixpt::Fixed value_;
  bool has_token_ = false;
  std::optional<fixpt::Fixed> external_;
};

}  // namespace asicpp::sched
