#include "sim/recorder.h"

#include <stdexcept>

#include "ckpt/snapshot.h"
#include "diag/diag.h"

namespace asicpp::sim {

Recorder::Recorder(sched::CycleScheduler& sched) : sched_(&sched) {
  sched.on_cycle_end([this](std::uint64_t) {
    // Single-owner assertion: the first driving thread claims the
    // recorder; any other thread is misuse (it would race the trace
    // vectors) and gets a structured PAR-002 before touching them.
    const auto self = std::this_thread::get_id();
    std::thread::id expect{};
    if (!owner_.compare_exchange_strong(expect, self,
                                        std::memory_order_acq_rel) &&
        expect != self) {
      throw Error(diag::Diagnostic{
          diag::Severity::kFatal, "PAR-002", "recorder", diag::kNoCycle,
          "Recorder driven from a second thread; give each simulation "
          "thread its own scheduler and recorder",
          {}});
    }
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      traces_[i].values.push_back(nets_[i]->last().value());
      traces_[i].valid.push_back(nets_[i]->has_token());
    }
    ++cycles_;
  });
}

void Recorder::watch(const std::string& net_name) {
  nets_.push_back(&sched_->net(net_name));
  traces_.push_back(Trace{net_name, {}, {}});
}

const Recorder::Trace& Recorder::trace(const std::string& net_name) const {
  for (const auto& t : traces_) {
    if (t.net == net_name) return t;
  }
  throw std::out_of_range("Recorder::trace: net '" + net_name + "' not watched");
}

void Recorder::clear() {
  for (auto& t : traces_) {
    t.values.clear();
    t.valid.clear();
  }
  cycles_ = 0;
  owner_.store(std::thread::id{}, std::memory_order_relaxed);
}

std::uint64_t Recorder::state_hash() const {
  ckpt::Hasher h;
  h.str("recorder");
  h.u32(static_cast<std::uint32_t>(traces_.size()));
  for (const Trace& t : traces_) h.str(t.net);
  return h.digest();
}

void Recorder::save_state(std::ostream& os) const {
  ckpt::Writer w(os);
  w.header(ckpt::EngineKind::kRecorder, state_hash(), cycles_);
  w.u32(static_cast<std::uint32_t>(traces_.size()));
  for (const Trace& t : traces_) {
    w.str(t.net);
    w.u32(static_cast<std::uint32_t>(t.values.size()));
    for (std::size_t i = 0; i < t.values.size(); ++i) {
      w.f64(t.values[i]);
      w.u8(t.valid[i] ? 1 : 0);
    }
  }
  w.end();
}

void Recorder::restore_state(std::istream& is) {
  ckpt::Reader r(is, "recorder");
  const std::uint64_t cyc = r.header(ckpt::EngineKind::kRecorder, state_hash());
  std::vector<Trace> staged;
  staged.reserve(r.count(1u << 20, traces_.size(), "trace(s), this recorder watches"));
  for (const Trace& t : traces_) {
    r.name("trace", t.net);
    Trace nt{t.net, {}, {}};
    const std::size_t n = r.count(1u << 26);
    nt.values.reserve(n);
    nt.valid.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nt.values.push_back(r.f64());
      nt.valid.push_back(r.u8() != 0);
    }
    staged.push_back(std::move(nt));
  }
  r.end();
  traces_ = std::move(staged);
  cycles_ = cyc;
}

}  // namespace asicpp::sim
