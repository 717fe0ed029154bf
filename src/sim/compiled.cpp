#include "sim/compiled.h"

#include <stdexcept>
#include <utility>

#include "ckpt/snapshot.h"

namespace asicpp::sim {

CompiledSystem CompiledSystem::compile(const sched::CycleScheduler& sched,
                                       const opt::PassOptions& passes) {
  return CompiledSystem(Image::compile(sched, passes));
}

void CompiledSystem::save_state(std::ostream& os) const {
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kCompiledSystem, img_->ir_hash, cycles_);
  save_lane_body(w, 0);
  // Levelized-schedule cursor, mirroring the interpreted scheduler.
  w.i32(core_.walk_misses);
  w.u8(core_.sched002_reported ? 1 : 0);
  w.end();
}

void CompiledSystem::restore_state_impl(std::istream& is) {
  ckpt::Reader r(is, "compiled simulator");
  const std::uint64_t cyc = r.header(ckpt::EngineKind::kCompiledSystem, img_->ir_hash);
  restore_lane_body(r, 0);
  core_.walk_misses = r.i32();
  core_.sched002_reported = r.u8() != 0;
  r.end();
  cycles_ = cyc;
}

void CompiledSystem::restore_state(std::istream& is) {
  ckpt::restore_or_roll_back(
      is, [this](std::ostream& os) { save_state(os); },
      [this](std::istream& in) { restore_state_impl(in); });
}

double CompiledSystem::net_value(const std::string& name) const {
  const auto it = img_->net_ids.find(name);
  if (it == img_->net_ids.end())
    throw std::out_of_range("CompiledSystem::net_value: no net '" + name + "'");
  return *net_values(it->second);
}

double CompiledSystem::reg_value(const std::string& name) const {
  const auto it = img_->reg_slots.find(name);
  if (it == img_->reg_slots.end())
    throw std::out_of_range("CompiledSystem::reg_value: no register '" + name + "'");
  return *lane_slots(it->second);
}

void CompiledSystem::poke(const std::string& input_name, double v) {
  const auto it = img_->input_slots.find(input_name);
  if (it == img_->input_slots.end())
    throw std::out_of_range("CompiledSystem::poke: no input '" + input_name + "'");
  *lane_slots(it->second) = v;
  // Also update the refresh value so the poke persists across cycles.
  for (std::size_t r = 0; r < img_->refresh.size(); ++r)
    if (img_->refresh[r] == it->second) refresh_[r] = v;
}

// ---------------------------------------------------------------------------
// The native tier.

RunResult CompiledSystem::run(const RunOptions& opts) {
  if (tier_ == nullptr || opts.profile) return LaneDriver<1>::run(opts);
  return run_steps(opts, [this] { tier_cycle(); });
}

void CompiledSystem::attach_native(std::shared_ptr<const NativeBuild> build,
                                   std::optional<std::uint64_t> swap_at,
                                   diag::DiagEngine* sink) {
  // One origin for all of this engine's diagnostics, the tape's included.
  core_.origin = "jit engine";
  tier_ = std::make_unique<NativeTier>();
  tier_->from_cache = build->from_cache;
  tier_->build = std::move(build);
  tier_->swap_at = swap_at;
  tier_->sink = sink;
  take_build();
}

void CompiledSystem::tier_cycle() {
  if (tier_->build != nullptr) take_build();
  if (tier_->kernel.cycle != nullptr)
    native_cycle();
  else
    LaneDriver<1>::cycle();
}

void CompiledSystem::take_build() {
  NativeTier& t = *tier_;
  const NativeBuild& b = *t.build;
  const bool held = t.swap_at && cycles_ < *t.swap_at;
  if (!b.done->load(std::memory_order_acquire)) {
    // Unset swap_at never waits; a held swap waits at its cycle.
    if (!t.swap_at || held) return;
    b.done->wait(false, std::memory_order_acquire);
  }
  if (held && b.kernel.cycle != nullptr) return;
  diag::DiagEngine& de = t.sink != nullptr ? *t.sink : diagnostics();
  for (const diag::Diagnostic& d : b.findings) de.report(d);
  t.compile_seconds = b.compile_seconds;
  if (b.kernel.cycle != nullptr) {
    t.kernel = b.kernel;
    t.swap_cycle = cycles_;
  }
  t.build.reset();
}

int CompiledSystem::fire_untimed(void* host, int comp) {
  auto* self = static_cast<CompiledSystem*>(host);
  std::exception_ptr& fault = self->tier_->untimed_fault;
  if (fault != nullptr) return -1;
  try {
    self->invoke_untimed(static_cast<std::size_t>(comp), 0);
    return 1;
  } catch (...) {
    fault = std::current_exception();
    return -1;
  }
}

// Phases 0-3 run in the emitted unit, over this driver's arrays; the walk
// decision and SCHED-001/002 are the shared phase-2 core's
// (sched/phase2.h).
void CompiledSystem::native_cycle() {
  begin_cycle();
  JitState st;
  st.S = slots_.data();
  st.T = tok_.data();
  st.state = state_.data();
  st.fired = fired_.data();
  st.sel = sel_.data();
  st.pending = pending_.data();
  st.host = this;
  st.fire_untimed = &CompiledSystem::fire_untimed;
  const bool walk = core_.walks(img_->level_offsets, img_->sched_reason, cycles_);
  const int ret = tier_->kernel.cycle(&st, walk ? 1 : 0);

  if (tier_->untimed_fault != nullptr)
    std::rethrow_exception(std::exchange(tier_->untimed_fault, nullptr));
  if (st.deadlock == 2) unknown_opcode(static_cast<std::size_t>(st.dl_comp), st.dl_op, 0);
  if (ret < 0 || st.deadlock == 1) core_.deadlock(postmortem());

  // The unit returns the sweeps it made beyond the first.
  core_.retry_passes += static_cast<std::uint64_t>(ret);
  if (walk) core_.walk_outcome(ret == 0, cycles_);
  for (const int f : fired_) core_.firings += f != 0 ? 1 : 0;
  ++cycles_;
}

}  // namespace asicpp::sim
