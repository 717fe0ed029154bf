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

void UntimedComponent::save_closure(ckpt::Writer& w) const {
  w.u8(save_ ? 1 : 0);
  if (save_) save_(w);
}

void UntimedComponent::restore_closure(ckpt::Reader& r) {
  const bool has = r.u8() != 0;
  if (has != static_cast<bool>(restore_))
    r.fail("CKPT-004", "truncated or corrupt snapshot stream",
           {"component '" + name() + "': the snapshot " +
            (has ? "carries" : "lacks") + " a closure state record this component " +
            (has ? "does not keep" : "keeps")});
  if (has) restore_(r);
}

void UntimedComponent::save_state(ckpt::Writer& w) const {
  w.u64(firings_);
  save_closure(w);
}

void UntimedComponent::restore_state(ckpt::Reader& r) {
  const auto firings = static_cast<std::size_t>(r.u64());
  restore_closure(r);
  firings_ = firings;
}

}  // namespace asicpp::sched
