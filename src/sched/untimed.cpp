#include "sched/untimed.h"

#include <stdexcept>

#include "ckpt/snapshot.h"

namespace asicpp::sched {

bool UntimedComponent::try_fire(std::uint64_t) {
  if (fired_) return false;
  for (const auto* n : ins_) {
    if (!n->has_token()) return false;
  }
  for (std::size_t i = 0; i < ins_.size(); ++i) in_[i] = ins_[i]->token();
  const auto& outputs = invoke();
  for (std::size_t i = 0; i < outs_.size(); ++i) outs_[i]->put(outputs[i]);
  fired_ = true;
  return true;
}

const std::vector<fixpt::Fixed>& UntimedComponent::invoke() {
  out_.clear();
  fn_(in_, out_);
  if (out_.size() != outs_.size())
    throw std::logic_error("UntimedComponent '" + name() + "': produced " +
                           std::to_string(out_.size()) + " tokens for " +
                           std::to_string(outs_.size()) + " output nets");
  ++firings_;
  return out_;
}

void UntimedComponent::save_state(ckpt::Writer& w) const {
  w.u64(firings_);
}

void UntimedComponent::restore_state(ckpt::Reader& r) {
  firings_ = static_cast<std::size_t>(r.u64());
}

}  // namespace asicpp::sched
