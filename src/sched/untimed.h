// Untimed blocks inside the cycle scheduler.
//
// The cycle scheduler "can incorporate untimed blocks as well" (section 2);
// in the DECT transceiver the RAM cells attached to the datapaths are
// described at high level while the datapaths are clock-cycle true
// (section 4). An UntimedComponent fires at most once per clock cycle, as
// soon as every bound input net carries a token; it is opportunistic — not
// firing is not an error (the datapath may simply not address the RAM this
// cycle).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fixpt/fixed.h"
#include "sched/component.h"
#include "sched/net.h"

namespace asicpp::sched {

class UntimedComponent : public Component {
 public:
  /// `fn(in, out)` reads one token per bound input net (binding order)
  /// and appends one token per bound output net to `out`, which arrives
  /// empty. Both vectors belong to the component and keep their capacity
  /// from one firing to the next, so a warm firing allocates nothing.
  /// State lives in the closure (e.g. a RAM's storage).
  using Behavior = std::function<void(const std::vector<fixpt::Fixed>& in,
                                      std::vector<fixpt::Fixed>& out)>;

  UntimedComponent(std::string name, Behavior fn)
      : Component(std::move(name)), fn_(std::move(fn)) {}

  void bind_input(Net& net) {
    ins_.push_back(&net);
    in_.resize(ins_.size());
  }
  void bind_output(Net& net) { outs_.push_back(&net); }

  void begin_cycle(std::uint64_t) override { fired_ = false; }
  void produce_tokens(std::uint64_t) override {}
  bool try_fire(std::uint64_t stamp) override;
  bool done() const override { return fired_; }
  bool must_fire() const override { return false; }
  void end_cycle(std::uint64_t) override {}
  std::vector<const Net*> waiting_nets() const override {
    std::vector<const Net*> nets;
    if (fired_) return nets;
    for (const Net* n : ins_)
      if (!n->has_token()) nets.push_back(n);
    return nets;
  }
  std::vector<const Net*> pending_output_nets() const override {
    if (fired_) return {};
    return {outs_.begin(), outs_.end()};
  }
  StaticDeps static_deps() const override {
    StaticDeps d;
    d.schedulable = true;
    d.fire_requires.assign(ins_.begin(), ins_.end());
    d.fire_produces.assign(outs_.begin(), outs_.end());
    return d;
  }

  std::size_t firings() const { return firings_; }
  /// Checkpoint restore: force the lifetime firing count.
  void set_firings(std::size_t n) { firings_ = n; }

  /// Snapshot hooks for state the closure keeps (e.g. a RAM's storage).
  /// `save` writes it; `restore` reads what `save` wrote, rejecting a short
  /// or corrupt record with CKPT-004 (Reader::fail) before it applies
  /// anything. A closure without hooks is snapshotted by its firing count
  /// alone, so its captured state is not restored.
  using SaveHook = std::function<void(ckpt::Writer&)>;
  using RestoreHook = std::function<void(ckpt::Reader&)>;
  void set_state_hooks(SaveHook save, RestoreHook restore) {
    save_ = std::move(save);
    restore_ = std::move(restore);
  }

  /// The closure's state record, as both snapshot bodies (the interpreted
  /// scheduler's and the compiled image's) carry it after the firing
  /// count: a flag saying whether hooks are set, then their record.
  void save_closure(ckpt::Writer& w) const;
  void restore_closure(ckpt::Reader& r);

  /// Checkpoint: the firing counter, then the closure's state record.
  void save_state(ckpt::Writer& w) const override;
  void restore_state(ckpt::Reader& r) override;

  /// Introspection / direct invocation for the compiled simulator.
  const std::vector<Net*>& input_nets() const { return ins_; }
  const std::vector<Net*>& output_nets() const { return outs_; }
  /// The input buffer invoke() passes to the closure: one token per bound
  /// input net, filled by the caller.
  std::vector<fixpt::Fixed>& inputs() { return in_; }
  /// Run the closure on inputs() and return its outputs, one per bound
  /// output net (valid until the next call). Throws std::logic_error when
  /// the closure produced another number of tokens.
  const std::vector<fixpt::Fixed>& invoke();

 private:
  Behavior fn_;
  SaveHook save_;
  RestoreHook restore_;
  std::vector<Net*> ins_;
  std::vector<Net*> outs_;
  std::vector<fixpt::Fixed> in_;
  std::vector<fixpt::Fixed> out_;
  bool fired_ = false;
  std::size_t firings_ = 0;
};

}  // namespace asicpp::sched
