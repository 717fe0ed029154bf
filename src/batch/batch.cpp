#include "batch/batch.h"

#include <stdexcept>

#include "ckpt/snapshot.h"

namespace asicpp::batch {

BatchedSystem BatchedSystem::compile(const sched::CycleScheduler& sched,
                                     unsigned lanes,
                                     const opt::PassOptions& passes) {
  return BatchedSystem(sim::Image::compile(sched, passes), lanes);
}

void BatchedSystem::check_lane(unsigned lane, const char* what) const {
  if (lane >= lanes())
    throw std::out_of_range(std::string("BatchedSystem::") + what +
                            ": lane out of range");
}

double BatchedSystem::net_value(unsigned lane, const std::string& name) const {
  check_lane(lane, "net_value");
  const auto it = img_->net_ids.find(name);
  if (it == img_->net_ids.end())
    throw std::out_of_range("BatchedSystem::net_value: no net '" + name + "'");
  return net_values(it->second)[lane];
}

double BatchedSystem::reg_value(unsigned lane, const std::string& name) const {
  check_lane(lane, "reg_value");
  const auto it = img_->reg_slots.find(name);
  if (it == img_->reg_slots.end())
    throw std::out_of_range("BatchedSystem::reg_value: no register '" + name +
                            "'");
  return lane_slots(it->second)[lane];
}

void BatchedSystem::poke(unsigned lane, const std::string& input_name,
                         double v) {
  check_lane(lane, "poke");
  const auto it = img_->input_slots.find(input_name);
  if (it == img_->input_slots.end())
    throw std::out_of_range("BatchedSystem::poke: no input '" + input_name +
                            "'");
  lane_slots(it->second)[lane] = v;
  // Update the per-lane refresh value so the poke persists across cycles.
  for (std::size_t r = 0; r < img_->refresh.size(); ++r) {
    if (img_->refresh[r] == it->second) refresh_[r * lanes() + lane] = v;
  }
}

void BatchedSystem::poke_all(const std::string& input_name, double v) {
  for (unsigned l = 0; l < lanes(); ++l) poke(l, input_name, v);
}

// ---------------------------------------------------------------------------
// Per-lane checkpoint/restore

void BatchedSystem::save_lane(unsigned lane, std::ostream& os) const {
  check_lane(lane, "save_lane");
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kBatched, img_->ir_hash, cycles_);
  w.u32(lane);
  save_lane_body(w, lane);
  w.u32(static_cast<std::uint32_t>(img_->refresh.size()));
  for (std::size_t r = 0; r < img_->refresh.size(); ++r)
    w.f64(refresh_[r * lanes() + lane]);
  w.end();
}

void BatchedSystem::restore_lane_impl(unsigned lane, std::istream& is) {
  ckpt::Reader r(is, "batched simulator");
  const std::uint64_t cyc = r.header(ckpt::EngineKind::kBatched, img_->ir_hash);
  const std::uint32_t snap_lane = r.u32();
  if (snap_lane != lane) {
    r.fail("CKPT-005", "lane binding mismatch",
           {"snapshot was saved from lane " + std::to_string(snap_lane) +
                ", restore targets lane " + std::to_string(lane),
            "a per-lane snapshot must restore into the same lane index"});
  }
  restore_lane_body(r, lane);
  const std::size_t nref =
      r.count(1u << 24, img_->refresh.size(), "refresh value(s), this image has");
  for (std::size_t i = 0; i < nref; ++i) refresh_[i * lanes() + lane] = r.f64();
  r.end();
  cycles_ = cyc;
}

void BatchedSystem::restore_lane(unsigned lane, std::istream& is) {
  check_lane(lane, "restore_lane");
  // The rollback snapshot carries the current cycle count as its position,
  // so rolling back restores cycles_ with the lane.
  ckpt::restore_or_roll_back(
      is, [&](std::ostream& os) { save_lane(lane, os); },
      [&](std::istream& in) { restore_lane_impl(lane, in); });
}

}  // namespace asicpp::batch
