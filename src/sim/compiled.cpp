#include "sim/compiled.h"

#include <stdexcept>

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

}  // namespace asicpp::sim
