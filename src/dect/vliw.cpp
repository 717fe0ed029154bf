#include "dect/vliw.h"

#include <random>
#include <stdexcept>

#include "ckpt/snapshot.h"
#include "fsm/fsm.h"
#include "sched/fsmcomp.h"
#include "sched/untimed.h"
#include "sfg/sfg.h"
#include "sfg/sig.h"

namespace asicpp::dect {

using fixpt::Fixed;
using fixpt::Format;
using fsm::Fsm;
using fsm::State;
using fsm::always;
using fsm::cnd;
using sched::DispatchComponent;
using sched::FsmComponent;
using sched::UntimedComponent;
using sfg::Reg;
using sfg::Sfg;
using sfg::Sig;

namespace {

const Format& kBit = kVliwBit;
const Format& kAddr = kVliwAddr;
const Format& kData = kVliwData;
const Format kCoef{10, 1, true, fixpt::Quant::kRound, fixpt::Overflow::kSaturate};

}  // namespace

int vliw_instruction_count(int dp_index) {
  if (dp_index == 0) return 57;
  return 2 + (dp_index * 13) % 42;  // 2..43
}

struct DectTransceiver::Impl {
  // One datapath: registers, instruction SFGs, dispatch component, and the
  // optional RAM bookkeeping.
  struct Datapath {
    std::unique_ptr<Reg> acc;
    std::unique_ptr<Reg> ram_ptr;  // only with RAM
    sfg::Sig x;
    sfg::Sig rdata;
    std::vector<std::unique_ptr<Sfg>> sfgs;
    std::unique_ptr<DispatchComponent> comp;
  };

  // Controller registers and SFGs.
  std::unique_ptr<Reg> pc, hold_pc, hr_reg, cond_reg;
  sfg::Sig hr_in, cond_in;
  std::unique_ptr<Sfg> lookup, hold_on, wait, hold_lookup;
  std::unique_ptr<Fsm> ctl;
  std::unique_ptr<FsmComponent> ctl_comp;

  std::vector<Datapath> dps;
  std::vector<std::unique_ptr<UntimedComponent>> roms_and_rams;
  // Structural-table mode: cycle-true ROM / RAM building blocks.
  std::vector<std::unique_ptr<Sfg>> table_sfgs;
  std::vector<std::unique_ptr<sched::SfgComponent>> table_comps;
  std::vector<std::unique_ptr<Reg>> table_regs;
  std::vector<std::vector<double>> ram_storage;
  std::vector<std::uint64_t> ram_hits;
  std::vector<std::vector<long>> program;  // [addr][dp] -> opcode
};

DectTransceiver::DectTransceiver(const VliwParams& p)
    : params_(p), impl_(std::make_unique<Impl>()) {
  if (p.num_datapaths < 1 || p.num_rams > p.num_datapaths || p.rom_length < 2)
    throw std::invalid_argument("DectTransceiver: bad parameters");
  Impl& im = *impl_;
  std::mt19937 rng(p.seed);

  // ---- program generation ----
  im.program.assign(static_cast<std::size_t>(p.rom_length), {});
  for (int a = 0; a < p.rom_length; ++a) {
    auto& word = im.program[static_cast<std::size_t>(a)];
    for (int d = 0; d < p.num_datapaths; ++d) {
      const int n = vliw_instruction_count(d);
      // Mostly arithmetic, some structure; opcode 0 = nop.
      const unsigned roll = rng() % 8;
      long op;
      if (roll == 0) {
        op = 0;  // explicit nop slot
      } else if (roll == 1) {
        op = 1;  // clear
      } else {
        op = 2 + static_cast<long>(rng() % static_cast<unsigned>(n - 1));
      }
      word.push_back(op);
    }
  }

  // ---- central controller (Fig 2) ----
  im.pc = std::make_unique<Reg>("pc", clk_, kAddr, 0.0);
  im.hold_pc = std::make_unique<Reg>("hold_pc", clk_, kAddr, 0.0);
  im.hr_reg = std::make_unique<Reg>("hr_reg", clk_, kBit, 0.0);
  im.cond_reg = std::make_unique<Reg>("cond_reg", clk_, kBit, 0.0);
  im.hr_in = Sig::input("hold_request", kBit);
  im.cond_in = Sig::input("cond", kBit);

  const double last = static_cast<double>(p.rom_length - 1);
  const auto sample_pins = [&](Sfg& s) {
    s.in(im.hr_in).in(im.cond_in);
    s.assign(*im.hr_reg, im.hr_in);
    s.assign(*im.cond_reg, im.cond_in);
  };

  im.lookup = std::make_unique<Sfg>("lookup");
  sample_pins(*im.lookup);
  im.lookup->out("addr", im.pc->sig())
      .out("nop", Sig(0.0) + 0.0)
      .assign(*im.pc, mux(*im.cond_reg, Sig(0.0) + 0.0,
                          mux(im.pc->sig() >= last, Sig(0.0) + 0.0, *im.pc + 1.0)));

  im.hold_on = std::make_unique<Sfg>("hold_on");
  sample_pins(*im.hold_on);
  im.hold_on->out("addr", im.pc->sig())
      .out("nop", Sig(1.0) + 0.0)
      .assign(*im.hold_pc, im.pc->sig());

  im.wait = std::make_unique<Sfg>("wait");
  sample_pins(*im.wait);
  im.wait->out("addr", im.pc->sig()).out("nop", Sig(1.0) + 0.0);

  im.hold_lookup = std::make_unique<Sfg>("hold_lookup");
  sample_pins(*im.hold_lookup);
  im.hold_lookup->out("addr", im.hold_pc->sig())
      .out("nop", Sig(0.0) + 0.0)
      .assign(*im.pc, mux(im.hold_pc->sig() >= last, Sig(0.0) + 0.0, *im.hold_pc + 1.0));

  im.ctl = std::make_unique<Fsm>("ctl");
  State execute = im.ctl->initial("execute");
  State hold = im.ctl->state("hold");
  execute << cnd(*im.hr_reg) << *im.hold_on << hold;
  execute << always << *im.lookup << execute;
  hold << !cnd(*im.hr_reg) << *im.hold_lookup << execute;
  hold << always << *im.wait << hold;

  im.ctl_comp = std::make_unique<FsmComponent>("ctl", *im.ctl);
  im.ctl_comp->bind_input(im.hr_in, sched_.net("hold_request"));
  im.ctl_comp->bind_input(im.cond_in, sched_.net("cond"));
  im.ctl_comp->bind_output("addr", sched_.net("rom_addr"));
  im.ctl_comp->bind_output("nop", sched_.net("rom_nop"));
  sched_.add(*im.ctl_comp);
  sched_.net("hold_request").drive(Fixed(0.0));

  // ---- instruction ROM (lookup table) ----
  if (p.structural_tables) {
    // Cycle-true ROM: per-datapath constant mux chains over shared
    // address-match subexpressions, gated by the nop line.
    Sig addr_in = Sig::input("rom_addr_in", kAddr);
    Sig nop_in = Sig::input("rom_nop_in", kBit);
    auto rs = std::make_unique<Sfg>("irom_s");
    rs->in(addr_in).in(nop_in);
    std::vector<Sig> match;
    for (int a = 0; a < p.rom_length; ++a)
      match.push_back(addr_in == static_cast<double>(a));
    for (int d = 0; d < p.num_datapaths; ++d) {
      Sig v = Sig(0.0) + 0.0;
      for (int a = 0; a < p.rom_length; ++a) {
        const double op =
            static_cast<double>(im.program[static_cast<std::size_t>(a)]
                                          [static_cast<std::size_t>(d)]);
        v = mux(match[static_cast<std::size_t>(a)], Sig(op), v);
      }
      rs->out("instr_" + std::to_string(d), mux(nop_in, Sig(0.0), v));
    }
    auto rc = std::make_unique<sched::SfgComponent>("irom", *rs);
    rc->bind_input(addr_in, sched_.net("rom_addr"));
    rc->bind_input(nop_in, sched_.net("rom_nop"));
    for (int d = 0; d < p.num_datapaths; ++d)
      rc->bind_output("instr_" + std::to_string(d), sched_.net("instr_" + std::to_string(d)));
    sched_.add(*rc);
    im.table_sfgs.push_back(std::move(rs));
    im.table_comps.push_back(std::move(rc));
  } else {
    auto rom = std::make_unique<UntimedComponent>(
        "irom", [this](const std::vector<Fixed>& in, std::vector<Fixed>& out) {
          const auto a = static_cast<std::size_t>(in[0].value()) %
                         impl_->program.size();
          const bool nop = in[1].value() != 0.0;
          for (int d = 0; d < params_.num_datapaths; ++d)
            out.emplace_back(nop ? 0.0
                                 : static_cast<double>(
                                       impl_->program[a][static_cast<std::size_t>(d)]));
        });
    rom->bind_input(sched_.net("rom_addr"));
    rom->bind_input(sched_.net("rom_nop"));
    for (int d = 0; d < p.num_datapaths; ++d)
      rom->bind_output(sched_.net("instr_" + std::to_string(d)));
    sched_.add(*rom);
    im.roms_and_rams.push_back(std::move(rom));
  }

  // ---- datapaths (ring) ----
  im.ram_storage.assign(static_cast<std::size_t>(p.num_rams),
                        std::vector<double>(1u << p.ram_addr_bits, 0.0));
  im.ram_hits.assign(static_cast<std::size_t>(p.num_rams), 0);
  std::uniform_real_distribution<double> coef_dist(-0.9, 0.9);

  im.dps.resize(static_cast<std::size_t>(p.num_datapaths));
  for (int d = 0; d < p.num_datapaths; ++d) {
    Impl::Datapath& dp = im.dps[static_cast<std::size_t>(d)];
    const bool has_ram = d < p.num_rams;
    const std::string dname = "dp" + std::to_string(d);
    dp.acc = std::make_unique<Reg>(dname + "_acc", clk_, kData, 0.0);
    dp.x = Sig::input(dname + "_x", kData);
    if (has_ram) {
      dp.ram_ptr = std::make_unique<Reg>(dname + "_ptr", clk_,
                                         Format{p.ram_addr_bits, p.ram_addr_bits, false,
                                                fixpt::Quant::kTruncate,
                                                fixpt::Overflow::kWrap},
                                         0.0);
      dp.rdata = Sig::input(dname + "_rdata", kData);
    }

    dp.comp = std::make_unique<DispatchComponent>(
        dname, sched_.net("instr_" + std::to_string(d)));

    const auto common_outs = [&](Sfg& s, bool has_ram_port) {
      s.out("data", dp.acc->sig());
      if (d == 0) s.out("cond", dp.acc->sig() > 6.0);
      // With a cycle-true RAM, the memory interface must carry a value on
      // every cycle (the RAM component is timed and always fires); idle
      // instructions drive an inert read.
      if (p.structural_tables && has_ram_port) {
        s.out("we", Sig(0.0) + 0.0)
            .out("ram_addr", dp.ram_ptr->sig())
            .out("wdata", Sig(0.0) + 0.0);
      }
    };

    // opcode 0 handled by the default nop (state frozen, Fig 2).
    auto nop = std::make_unique<Sfg>(dname + "_nop");
    common_outs(*nop, has_ram);
    dp.comp->set_default(*nop);
    dp.sfgs.push_back(std::move(nop));

    const int n = vliw_instruction_count(d);
    for (long op = 1; op <= n; ++op) {
      auto s = std::make_unique<Sfg>(dname + "_i" + std::to_string(op));
      const bool defines_ram_port = has_ram && (op == 3 || op == 4);
      common_outs(*s, has_ram && !defines_ram_port);
      if (op == 1) {  // clear
        s->assign(*dp.acc, Sig(0.0) + 0.0);
      } else if (op == 2) {  // pass
        s->in(dp.x).assign(*dp.acc, dp.x);
      } else if (has_ram && op == 3) {  // store acc, advance pointer
        s->out("we", Sig(1.0) + 0.0)
            .out("ram_addr", dp.ram_ptr->sig())
            .out("wdata", dp.acc->sig())
            .assign(*dp.ram_ptr, *dp.ram_ptr + 1.0);
      } else if (has_ram && op == 4) {  // load & accumulate
        s->in(dp.rdata)
            .out("we", Sig(0.0) + 0.0)
            .out("ram_addr", dp.ram_ptr->sig())
            .out("wdata", Sig(0.0) + 0.0)
            .assign(*dp.acc, (*dp.acc + dp.rdata).cast(kData));
      } else {
        // mac with a per-instruction coefficient (this is where the 152
        // multiplies per DECT symbol come from).
        const double c = fixpt::quantize(coef_dist(rng), kCoef);
        s->in(dp.x).assign(*dp.acc, (*dp.acc + dp.x * c).cast(kData));
      }
      dp.comp->add_instruction(op, *s);
      dp.sfgs.push_back(std::move(s));
    }

    // Ring connectivity: dp0 eats the external sample, dp_d the previous
    // datapath's data output.
    if (d == 0) {
      dp.comp->bind_input(dp.x, sched_.net("sample"));
    } else {
      dp.comp->bind_input(dp.x, sched_.net("data_" + std::to_string(d - 1)));
    }
    dp.comp->bind_output("data", sched_.net("data_" + std::to_string(d)));
    if (d == 0) dp.comp->bind_output("cond", sched_.net("cond"));
    if (has_ram) {
      dp.comp->bind_input(dp.rdata, sched_.net(dname + "_rdata"));
      dp.comp->bind_output("we", sched_.net(dname + "_we"));
      dp.comp->bind_output("ram_addr", sched_.net(dname + "_addr"));
      dp.comp->bind_output("wdata", sched_.net(dname + "_wdata"));
    }
    sched_.add(*dp.comp);
  }

  // Fig 2's condition is a registered pin; cond comes from dp0 but can be
  // absent in hold cycles (dp0 nops still emit it: reg-only output). The
  // sample pin idles at zero until driven.
  sched_.net("sample").drive(Fixed(0.0));

  // ---- RAM cells ----
  for (int r = 0; p.structural_tables && r < p.num_rams; ++r) {
    // Cycle-true RAM: a register file with a decoded write and a read mux,
    // read-before-write like the high-level model.
    const std::string dname = "dp" + std::to_string(r);
    const int words = 1 << p.ram_addr_bits;
    Sig we_in = Sig::input(dname + "_ram_we", kBit);
    Sig addr_in = Sig::input(dname + "_ram_addr", kAddr);
    Sig wd_in = Sig::input(dname + "_ram_wd", kData);
    auto rs = std::make_unique<Sfg>(dname + "_ram_s");
    rs->in(we_in).in(addr_in).in(wd_in);
    Sig rdata = Sig(0.0) + 0.0;
    for (int w = 0; w < words; ++w) {
      auto word = std::make_unique<Reg>(dname + "_m" + std::to_string(w), clk_, kData, 0.0);
      Sig sel = addr_in == static_cast<double>(w);
      rdata = mux(sel, word->sig(), rdata);
      rs->assign(*word, mux(we_in & sel, wd_in, word->sig()));
      im.table_regs.push_back(std::move(word));
    }
    rs->out("rdata", rdata);
    auto rc = std::make_unique<sched::SfgComponent>(dname + "_ram", *rs);
    rc->bind_input(we_in, sched_.net(dname + "_we"));
    rc->bind_input(addr_in, sched_.net(dname + "_addr"));
    rc->bind_input(wd_in, sched_.net(dname + "_wdata"));
    rc->bind_output("rdata", sched_.net(dname + "_rdata"));
    sched_.add(*rc);
    im.table_sfgs.push_back(std::move(rs));
    im.table_comps.push_back(std::move(rc));
  }
  for (int r = 0; !p.structural_tables && r < p.num_rams; ++r) {
    const std::string dname = "dp" + std::to_string(r);
    const auto k = static_cast<std::size_t>(r);
    auto ram = std::make_unique<UntimedComponent>(
        dname + "_ram", [this, k, q = fixpt::Quantizer(kData)](const std::vector<Fixed>& in,
                                                               std::vector<Fixed>& out) {
          auto& mem = impl_->ram_storage[k];
          const bool we = in[0].value() != 0.0;
          const auto a = static_cast<std::size_t>(in[1].value()) % mem.size();
          out.emplace_back(mem[a]);
          if (we) mem[a] = q(in[2].value());
          ++impl_->ram_hits[k];
        });
    // Snapshots carry the RAM's words and access count.
    ram->set_state_hooks(
        [this, k](ckpt::Writer& w) {
          const auto& mem = impl_->ram_storage[k];
          w.u32(static_cast<std::uint32_t>(mem.size()));
          for (const double v : mem) w.f64(v);
          w.u64(impl_->ram_hits[k]);
        },
        [this, k](ckpt::Reader& rd) {
          auto& mem = impl_->ram_storage[k];
          std::vector<double> words(rd.count(1u << 20, mem.size(), "RAM word(s), this RAM has"));
          for (double& v : words) v = rd.f64();
          const std::uint64_t hits = rd.u64();
          mem = std::move(words);
          impl_->ram_hits[k] = hits;
        });
    ram->bind_input(sched_.net(dname + "_we"));
    ram->bind_input(sched_.net(dname + "_addr"));
    ram->bind_input(sched_.net(dname + "_wdata"));
    ram->bind_output(sched_.net(dname + "_rdata"));
    sched_.add(*ram);
    im.roms_and_rams.push_back(std::move(ram));
  }
}

DectTransceiver::~DectTransceiver() = default;

void DectTransceiver::set_hold_request(bool hold) {
  sched_.net("hold_request").drive(Fixed(hold ? 1.0 : 0.0));
}

void DectTransceiver::drive_sample(double v) {
  sched_.net("sample").drive(Fixed(fixpt::quantize(v, kData)));
}

long DectTransceiver::pc() const { return static_cast<long>(impl_->pc->read().value()); }

long DectTransceiver::hold_pc() const {
  return static_cast<long>(impl_->hold_pc->read().value());
}

bool DectTransceiver::holding() const { return impl_->ctl->current_name() == "hold"; }

double DectTransceiver::datapath_out(int d) const {
  return const_cast<sched::CycleScheduler&>(sched_)
      .net("data_" + std::to_string(d))
      .last()
      .value();
}

double DectTransceiver::datapath_acc(int d) const {
  return impl_->dps.at(static_cast<std::size_t>(d)).acc->read().value();
}

int DectTransceiver::instruction_count(int d) const {
  return static_cast<int>(
      impl_->dps.at(static_cast<std::size_t>(d)).comp->num_instructions());
}

const std::vector<std::vector<long>>& DectTransceiver::program() const {
  return impl_->program;
}

std::uint64_t DectTransceiver::ram_accesses(int ram) const {
  return impl_->ram_hits.at(static_cast<std::size_t>(ram));
}

}  // namespace asicpp::dect
