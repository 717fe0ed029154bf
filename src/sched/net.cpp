#include "sched/net.h"

#include <stdexcept>

#include "ckpt/snapshot.h"

namespace asicpp::sched {

void Net::conflict() const {
  throw std::logic_error("Net '" + name_ + "': two tokens in one cycle (bus conflict)");
}

void Net::save_state(ckpt::Writer& w) const {
  w.str(name_);
  w.fixed(value_);
  w.u8(has_token_ ? 1 : 0);
  w.u8(external_.has_value() ? 1 : 0);
  if (external_.has_value()) w.fixed(*external_);
}

void Net::restore_state(ckpt::Reader& r) {
  const std::string name = r.str();
  if (name != name_) {
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"net record names '" + name + "' where '" + name_ +
            "' was expected — net ordering does not match the snapshot"});
  }
  fixpt::Fixed value = r.fixed();
  bool has_token = r.u8() != 0;
  bool driven = r.u8() != 0;
  std::optional<fixpt::Fixed> external;
  if (driven) external = r.fixed();
  value_ = value;
  has_token_ = has_token;
  external_ = external;
  drive_changed();
}

}  // namespace asicpp::sched
