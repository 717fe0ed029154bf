// Instruction decode table of a dispatch component.
//
// A DispatchComponent (sched/fsmcomp.h), its compiled form
// (sim::Image::Comp) and its component model (hdl::CompModel, which the
// event-driven RT model decodes through) all map an instruction token to
// the SFG of the cycle. The table is dense — a vector indexed by opcode whose holes hold
// the default — so a decode is one bounds check and one load. The DECT
// datapaths use opcodes 1..57, so the vector is a few hundred bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace asicpp::sched {

template <class T>
class OpcodeTable {
 public:
  /// add() accepts opcodes in [0, kMaxOpcode].
  static constexpr long kMaxOpcode = 65535;

  /// `none` is what decode() yields for an unbound opcode until
  /// set_default() names a default.
  explicit OpcodeTable(T none) : none_(none), dflt_(none) {}

  /// Bind `opcode` to `v`. Returns false when `opcode` is already bound;
  /// throws std::out_of_range for an opcode outside [0, kMaxOpcode].
  bool add(long opcode, T v) {
    if (opcode < 0 || opcode > kMaxOpcode)
      throw std::out_of_range("opcode " + std::to_string(opcode) + " outside [0, " +
                              std::to_string(kMaxOpcode) + "]");
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), opcode,
        [](const std::pair<long, T>& e, long op) { return e.first < op; });
    if (it != entries_.end() && it->first == opcode) return false;
    entries_.insert(it, {opcode, v});
    const auto at = static_cast<std::size_t>(opcode);
    if (slots_.size() <= at) slots_.resize(at + 1, dflt_);
    slots_[at] = v;
    return true;
  }

  /// Decode every unbound opcode to `v`.
  void set_default(T v) {
    dflt_ = v;
    slots_.assign(slots_.size(), v);
    for (const auto& [op, x] : entries_) slots_[static_cast<std::size_t>(op)] = x;
  }
  bool has_default() const { return dflt_ != none_; }
  T default_value() const { return dflt_; }

  /// The value bound to `opcode`, else the default (`none` without one):
  /// negative opcodes, opcodes past the largest bound one and holes alike.
  T decode(long opcode) const {
    const auto at = static_cast<unsigned long>(opcode);
    return at < slots_.size() ? slots_[at] : dflt_;
  }

  /// Bound (opcode, value) pairs in opcode order.
  const std::vector<std::pair<long, T>>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Call `fn(v)` on every bound value in opcode order, then on the
  /// default when there is one.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& e : entries_) fn(e.second);
    if (has_default()) fn(dflt_);
  }

  std::size_t footprint_bytes() const {
    return slots_.capacity() * sizeof(T) + entries_.capacity() * sizeof(entries_[0]);
  }

 private:
  std::vector<T> slots_;  ///< opcode -> value; holes hold dflt_
  std::vector<std::pair<long, T>> entries_;
  T none_;
  T dflt_;
};

}  // namespace asicpp::sched
