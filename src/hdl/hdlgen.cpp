#include "hdl/hdlgen.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "hdl/model.h"
#include "sched/untimed.h"
#include "sfg/wordlen.h"

namespace asicpp::hdl {

using fixpt::Format;
using sfg::FormatMap;
using sfg::Node;
using sfg::NodePtr;
using sfg::Op;

namespace {

/// Bit width of the HDL vector for a format: everything is carried as
/// `signed`; unsigned formats get one headroom bit.
int hdl_width(const Format& f) { return f.wl + (f.is_signed ? 0 : 1); }

long long mantissa_of(const Node* n, const Format& f) {
  const double scaled = std::ldexp(n->value.value(), f.frac_bits());
  return static_cast<long long>(std::llround(scaled));
}

/// Dialect-aware text emission for one component.
class Writer {
 public:
  Writer(Dialect d, CompModel m) : d_(d), m_(std::move(m)) {}

  HdlComponent emit();

 private:
  const Format& fmt(const NodePtr& n) const { return m_.fmts.at(n.get()); }
  int width(const NodePtr& n) const { return hdl_width(fmt(n)); }

  std::string ref(const NodePtr& n) const;
  std::string literal(long long mant, int w) const;
  /// Operand aligned to `frac` fractional bits in a `w`-bit context.
  std::string aligned(const NodePtr& n, int frac, int w) const;
  std::string quantized(const NodePtr& src, const Format& to) const;
  void emit_node(const NodePtr& n, std::ostream& os,
                 std::unordered_set<const Node*>& done);
  void emit_decl(std::ostream& os, const std::string& name, int w) const;
  void emit_assignments(std::ostream& os, sfg::Sfg& s, const std::string& ind);

  Dialect d_;
  CompModel m_;
};

std::string Writer::literal(long long mant, int w) const {
  std::ostringstream os;
  if (d_ == Dialect::kVhdl) {
    if (mant > 2147483647LL || mant < -2147483648LL)
      throw sfg::FormatError("VHDL integer literal out of range");
    os << "to_signed(" << mant << ", " << w << ")";
  } else {
    if (mant < 0)
      os << "-" << w << "'sd" << -mant;
    else
      os << w << "'sd" << mant;
  }
  return os.str();
}

std::string Writer::ref(const NodePtr& n) const {
  switch (n->op) {
    case Op::kInput:
      return sanitize(n->name);
    case Op::kReg:
      return "r_" + sanitize(n->name);
    case Op::kConst:
      return literal(mantissa_of(n.get(), fmt(n)), width(n));
    default:
      // Optimizer-created nodes carry a deterministic name; everything else
      // falls back to the node id (stable within one generation).
      return n->name.empty() ? "n" + std::to_string(n->id) : sanitize(n->name);
  }
}

std::string Writer::aligned(const NodePtr& n, int frac, int w) const {
  const int d = frac - fmt(n).frac_bits();
  std::ostringstream os;
  if (d_ == Dialect::kVhdl) {
    if (d == 0)
      os << "resize(" << ref(n) << ", " << w << ")";
    else
      os << "shift_left(resize(" << ref(n) << ", " << w << "), " << d << ")";
  } else {
    // Verilog: context extension covers the resize; shifts stay explicit.
    if (d == 0)
      os << ref(n);
    else
      os << "(" << ref(n) << " <<< " << d << ")";
  }
  return os.str();
}

std::string Writer::quantized(const NodePtr& src, const Format& to) const {
  const Format& from = fmt(src);
  const int drop = from.frac_bits() - to.frac_bits();
  const int w = hdl_width(to);
  std::ostringstream os;
  if (d_ == Dialect::kVhdl) {
    os << "quantize(" << ref(src) << ", " << drop << ", "
       << (to.quant == fixpt::Quant::kRound ? "true" : "false") << ", "
       << (to.ovf == fixpt::Overflow::kSaturate ? "true" : "false") << ", " << w << ")";
  } else {
    // Verilog: inline truncate/saturate with literal bounds.
    const long long maxm = static_cast<long long>(
        std::llround(std::ldexp(to.max_value(), to.frac_bits())));
    const long long minm = static_cast<long long>(
        std::llround(std::ldexp(to.min_value(), to.frac_bits())));
    const std::string x = ref(src);
    std::string shifted;
    if (drop > 0) {
      if (to.quant == fixpt::Quant::kRound) {
        // round half away from zero
        shifted = "((" + x + " >= 0) ? ((" + x + " + (1 <<< " + std::to_string(drop - 1) +
                  ")) >>> " + std::to_string(drop) + ") : (-((-" + x + " + (1 <<< " +
                  std::to_string(drop - 1) + ")) >>> " + std::to_string(drop) + ")))";
      } else {
        shifted = "(" + x + " >>> " + std::to_string(drop) + ")";
      }
    } else if (drop < 0) {
      shifted = "(" + x + " <<< " + std::to_string(-drop) + ")";
    } else {
      shifted = x;
    }
    if (to.ovf == fixpt::Overflow::kSaturate) {
      os << "((" << shifted << ") > " << maxm << " ? " << literal(maxm, w) << " : ("
         << shifted << ") < " << minm << " ? " << literal(minm, w) << " : (" << shifted
         << "))";
    } else {
      os << shifted;
    }
  }
  return os.str();
}

void Writer::emit_decl(std::ostream& os, const std::string& name, int w) const {
  if (d_ == Dialect::kVhdl)
    os << "  signal " << name << " : signed(" << w - 1 << " downto 0);\n";
  else
    os << "  wire signed [" << w - 1 << ":0] " << name << ";\n";
}

void Writer::emit_node(const NodePtr& n, std::ostream& os,
                       std::unordered_set<const Node*>& done) {
  switch (n->op) {
    case Op::kInput:
    case Op::kConst:
    case Op::kReg:
      return;
    default:
      break;
  }
  if (!done.insert(n.get()).second) return;
  for (const auto& a : n->args) emit_node(a, os, done);

  const Format& f = fmt(n);
  const int w = hdl_width(f);
  const std::string name = ref(n);
  const bool vhdl = d_ == Dialect::kVhdl;
  const std::string lhs = vhdl ? ("  " + name + " <= ") : ("  assign " + name + " = ");
  const std::string eol = ";\n";

  const auto frac = f.frac_bits();
  switch (n->op) {
    case Op::kAdd:
      os << lhs << aligned(n->args[0], frac, w) << " + " << aligned(n->args[1], frac, w) << eol;
      break;
    case Op::kSub:
      os << lhs << aligned(n->args[0], frac, w) << " - " << aligned(n->args[1], frac, w) << eol;
      break;
    case Op::kMul:
      if (vhdl)
        os << lhs << "resize(" << ref(n->args[0]) << " * " << ref(n->args[1]) << ", " << w
           << ")" << eol;
      else
        os << lhs << ref(n->args[0]) << " * " << ref(n->args[1]) << eol;
      break;
    case Op::kNeg:
      os << lhs << "-" << aligned(n->args[0], frac, w) << eol;
      break;
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor: {
      const char* sym = n->op == Op::kAnd ? (vhdl ? "and" : "&")
                        : n->op == Op::kOr ? (vhdl ? "or" : "|")
                                           : (vhdl ? "xor" : "^");
      os << lhs << aligned(n->args[0], frac, w) << " " << sym << " "
         << aligned(n->args[1], frac, w) << eol;
      break;
    }
    case Op::kNot:
      if (vhdl)
        os << lhs << literal(1, w) << " when " << ref(n->args[0]) << " = 0 else "
           << literal(0, w) << eol;
      else
        os << lhs << "(" << ref(n->args[0]) << " == 0) ? " << literal(1, w) << " : "
           << literal(0, w) << eol;
      break;
    case Op::kShl: {
      const int sh = static_cast<int>(n->args[1]->value.value());
      if (vhdl)
        os << lhs << "shift_left(resize(" << ref(n->args[0]) << ", " << w << "), " << sh
           << ")" << eol;
      else
        os << lhs << ref(n->args[0]) << " <<< " << sh << eol;
      break;
    }
    case Op::kShr:
      // Pure binary-point move: the mantissa is unchanged.
      if (vhdl)
        os << lhs << "resize(" << ref(n->args[0]) << ", " << w << ")" << eol;
      else
        os << lhs << ref(n->args[0]) << eol;
      break;
    case Op::kMux:
      if (vhdl)
        os << lhs << aligned(n->args[1], frac, w) << " when " << ref(n->args[0])
           << " /= 0 else " << aligned(n->args[2], frac, w) << eol;
      else
        os << lhs << "(" << ref(n->args[0]) << " != 0) ? " << aligned(n->args[1], frac, w)
           << " : " << aligned(n->args[2], frac, w) << eol;
      break;
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const Format& fa = fmt(n->args[0]);
      const Format& fb = fmt(n->args[1]);
      const int cf = std::max(fa.frac_bits(), fb.frac_bits());
      const int cw = std::max(hdl_width(fa) + cf - fa.frac_bits(),
                              hdl_width(fb) + cf - fb.frac_bits()) +
                     1;
      const char* sym = n->op == Op::kEq   ? (vhdl ? "=" : "==")
                        : n->op == Op::kNe ? "/="
                        : n->op == Op::kLt ? "<"
                        : n->op == Op::kLe ? "<="
                        : n->op == Op::kGt ? ">"
                                           : ">=";
      if (!vhdl && n->op == Op::kNe) sym = "!=";
      if (vhdl) {
        os << lhs << literal(1, w) << " when " << aligned(n->args[0], cf, cw) << " " << sym
           << " " << aligned(n->args[1], cf, cw) << " else " << literal(0, w) << eol;
      } else {
        // Pre-extend operands so the shift cannot overflow.
        os << "  wire signed [" << cw - 1 << ":0] " << ref(n) << "_a = "
           << ref(n->args[0]) << ";\n";
        os << "  wire signed [" << cw - 1 << ":0] " << ref(n) << "_b = "
           << ref(n->args[1]) << ";\n";
        const int da = cf - fa.frac_bits();
        const int db = cf - fb.frac_bits();
        os << lhs << "((" << ref(n) << "_a <<< " << da << ") " << sym << " (" << ref(n)
           << "_b <<< " << db << ")) ? " << literal(1, w) << " : " << literal(0, w) << eol;
      }
      break;
    }
    case Op::kCast:
      os << lhs << quantized(n->args[0], f) << eol;
      break;
    default:
      break;
  }
}

void Writer::emit_assignments(std::ostream& os, sfg::Sfg& s, const std::string& ind) {
  const bool vhdl = d_ == Dialect::kVhdl;
  const char* asn = vhdl ? " <= " : " = ";
  for (const auto& o : s.outputs()) {
    const Format& to = m_.out_fmt.at(o.port);
    os << ind << sanitize(o.port) << asn
       << aligned(o.expr, to.frac_bits(), hdl_width(to)) << ";\n";
  }
  for (const auto& a : s.reg_assigns()) {
    const Format to = a.reg->has_fmt ? a.reg->fmt : fmt(a.reg);
    os << ind << "r_" << sanitize(a.reg->name) << "_next" << asn
       << quantized(a.expr, to) << ";\n";
  }
}

HdlComponent Writer::emit() {
  HdlComponent out;
  out.name = m_.name;
  const bool vhdl = d_ == Dialect::kVhdl;

  // ---- entity / module header ----
  std::ostringstream ent;
  if (vhdl) {
    ent << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n"
        << "use work.asicpp_pkg.all;\n\n";
    ent << "entity " << m_.name << " is\n  port (\n"
        << "    clk : in std_logic;\n    rst : in std_logic";
    if (m_.kind == CompModel::Kind::kDispatch)
      ent << ";\n    " << m_.instr_port << " : in signed(15 downto 0)";
    for (const auto& i : m_.inputs)
      ent << ";\n    " << sanitize(i->name) << " : in signed(" << width(i) - 1
          << " downto 0)";
    for (const auto& p : m_.out_ports)
      ent << ";\n    " << sanitize(p) << " : out signed("
          << hdl_width(m_.out_fmt.at(p)) - 1 << " downto 0)";
    ent << ");\nend " << m_.name << ";\n";
  } else {
    ent << "module " << m_.name << " (\n  input wire clk,\n  input wire rst";
    if (m_.kind == CompModel::Kind::kDispatch)
      ent << ",\n  input wire signed [15:0] " << m_.instr_port;
    for (const auto& i : m_.inputs)
      ent << ",\n  input wire signed [" << width(i) - 1 << ":0] " << sanitize(i->name);
    for (const auto& p : m_.out_ports)
      ent << ",\n  output reg signed [" << hdl_width(m_.out_fmt.at(p)) - 1 << ":0] "
          << sanitize(p);
    ent << "\n);\n";
  }
  out.entity = ent.str();

  // ---- declarations + datapath ----
  std::ostringstream dp, decl;
  std::unordered_set<const Node*> done;
  for (auto* s : m_.sfgs) {
    for (const auto& o : s->outputs()) emit_node(o.expr, dp, done);
    for (const auto& a : s->reg_assigns()) emit_node(a.expr, dp, done);
  }
  if (m_.kind == CompModel::Kind::kFsm) {
    for (const auto& t : m_.fsm->transitions())
      if (!t.guards.empty()) emit_node(t.guards.front().expr().node(), dp, done);
  }
  // Declarations: walk again for deterministic order.
  std::unordered_set<const Node*> decl_done;
  struct DeclWalk {
    Writer* w;
    std::ostringstream& os;
    std::unordered_set<const Node*>& seen;
    void walk(const NodePtr& n) {
      switch (n->op) {
        case Op::kInput:
        case Op::kConst:
        case Op::kReg:
          return;
        default:
          break;
      }
      if (!seen.insert(n.get()).second) return;
      for (const auto& a : n->args) walk(a);
      w->emit_decl(os, w->ref(n), w->width(n));
    }
  } dw{this, decl, decl_done};
  for (auto* s : m_.sfgs) {
    for (const auto& o : s->outputs()) dw.walk(o.expr);
    for (const auto& a : s->reg_assigns()) dw.walk(a.expr);
  }
  if (m_.kind == CompModel::Kind::kFsm) {
    for (const auto& t : m_.fsm->transitions())
      if (!t.guards.empty()) dw.walk(t.guards.front().expr().node());
  }
  // Register signals.
  for (const auto& r : m_.regs) {
    const int w = hdl_width(r->has_fmt ? r->fmt : fmt(r));
    if (vhdl) {
      decl << "  signal r_" << sanitize(r->name) << ", r_" << sanitize(r->name)
           << "_next : signed(" << w - 1 << " downto 0);\n";
    } else {
      decl << "  reg signed [" << w - 1 << ":0] r_" << sanitize(r->name) << ";\n";
      decl << "  reg signed [" << w - 1 << ":0] r_" << sanitize(r->name) << "_next;\n";
    }
  }
  // State register.
  if (m_.kind == CompModel::Kind::kFsm) {
    if (vhdl) {
      decl << "  type state_t is (";
      for (int i = 0; i < m_.fsm->num_states(); ++i)
        decl << (i ? ", " : "") << "st_" << sanitize(m_.fsm->state_name(i));
      decl << ");\n  signal state, state_next : state_t;\n";
    } else {
      int bits = 1;
      while ((1 << bits) < m_.fsm->num_states()) ++bits;
      for (int i = 0; i < m_.fsm->num_states(); ++i)
        decl << "  localparam ST_" << sanitize(m_.fsm->state_name(i)) << " = " << i << ";\n";
      decl << "  reg [" << bits - 1 << ":0] state, state_next;\n";
    }
  }
  out.datapath = decl.str() + dp.str();

  // ---- controller ----
  std::ostringstream ctl;
  const std::string ind = "    ";
  if (vhdl) {
    ctl << "  comb : process(all)\n  begin\n";
    for (const auto& p : m_.out_ports)
      ctl << ind << sanitize(p) << " <= (others => '0');\n";
    for (const auto& r : m_.regs)
      ctl << ind << "r_" << sanitize(r->name) << "_next <= r_" << sanitize(r->name)
          << ";\n";
  } else {
    ctl << "  always @* begin\n";
    for (const auto& p : m_.out_ports) ctl << ind << sanitize(p) << " = 0;\n";
    for (const auto& r : m_.regs)
      ctl << ind << "r_" << sanitize(r->name) << "_next = r_" << sanitize(r->name)
          << ";\n";
  }

  switch (m_.kind) {
    case CompModel::Kind::kSfg:
      emit_assignments(ctl, *m_.sfgs.front(), ind);
      break;
    case CompModel::Kind::kFsm: {
      if (vhdl)
        ctl << ind << "state_next <= state;\n" << ind << "case state is\n";
      else
        ctl << ind << "state_next = state;\n" << ind << "case (state)\n";
      for (int st = 0; st < m_.fsm->num_states(); ++st) {
        const std::string stname = sanitize(m_.fsm->state_name(st));
        ctl << ind << (vhdl ? "when st_" + stname + " =>\n" : "ST_" + stname + ": begin\n");
        bool first = true;
        bool closed = false;
        for (const auto& t : m_.fsm->transitions()) {
          if (t.from != st) continue;
          std::string guard;
          if (!t.guards.empty()) {
            const auto g = t.guards.front().expr().node();
            guard = ref(g) + (vhdl ? " /= 0" : " != 0");
          }
          if (guard.empty()) {
            if (!first) ctl << ind << (vhdl ? "  else\n" : "  else begin\n");
            // unconditional body
          } else {
            ctl << ind << (first ? (vhdl ? "  if " : "  if (") : (vhdl ? "  elsif " : "  else if ("))
                << guard << (vhdl ? " then\n" : ") begin\n");
          }
          for (auto* s : t.actions) emit_assignments(ctl, m_.optimized(*s), ind + "    ");
          ctl << ind << "    state_next " << (vhdl ? "<= st_" : "= ST_")
              << sanitize(m_.fsm->state_name(t.to)) << ";\n";
          if (!vhdl) ctl << ind << "  end\n";
          if (guard.empty()) {
            closed = true;
            break;
          }
          first = false;
        }
        if (vhdl && (!first || closed)) ctl << ind << "  end if;\n";
        if (vhdl && first && !closed) ctl << ind << "  null;\n";
        if (!vhdl) ctl << ind << "end\n";
      }
      if (vhdl)
        ctl << ind << "end case;\n";
      else
        ctl << ind << "default: ;\n" << ind << "endcase\n";
      break;
    }
    case CompModel::Kind::kDispatch: {
      if (vhdl)
        ctl << ind << "case to_integer(" << m_.instr_port << ") is\n";
      else
        ctl << ind << "case (" << m_.instr_port << ")\n";
      for (const auto& [op, s] : m_.table.entries()) {
        ctl << ind << (vhdl ? "when " + std::to_string(op) + " =>\n"
                            : std::to_string(op) + ": begin\n");
        emit_assignments(ctl, *s, ind + "  ");
        if (!vhdl) ctl << ind << "end\n";
      }
      ctl << ind << (vhdl ? "when others =>\n" : "default: begin\n");
      if (m_.table.has_default())
        emit_assignments(ctl, *m_.table.default_value(), ind + "  ");
      else if (vhdl)
        ctl << ind << "  null;\n";
      if (!vhdl) ctl << ind << "end\n";
      ctl << ind << (vhdl ? "end case;\n" : "endcase\n");
      break;
    }
  }
  if (vhdl)
    ctl << "  end process;\n\n";
  else
    ctl << "  end\n\n";

  // Clocked process.
  if (vhdl) {
    ctl << "  seq : process(clk)\n  begin\n    if rising_edge(clk) then\n"
        << "      if rst = '1' then\n";
    for (const auto& r : m_.regs) {
      const Format rf = r->has_fmt ? r->fmt : fmt(r);
      ctl << "        r_" << sanitize(r->name) << " <= "
          << literal(static_cast<long long>(std::llround(std::ldexp(r->init, rf.frac_bits()))),
                     hdl_width(rf))
          << ";\n";
    }
    if (m_.kind == CompModel::Kind::kFsm)
      ctl << "        state <= st_" << sanitize(m_.fsm->state_name(m_.fsm->initial_state()))
          << ";\n";
    ctl << "      else\n";
    for (const auto& r : m_.regs)
      ctl << "        r_" << sanitize(r->name) << " <= r_" << sanitize(r->name)
          << "_next;\n";
    if (m_.kind == CompModel::Kind::kFsm) ctl << "        state <= state_next;\n";
    ctl << "      end if;\n    end if;\n  end process;\n";
  } else {
    ctl << "  always @(posedge clk) begin\n    if (rst) begin\n";
    for (const auto& r : m_.regs) {
      const Format rf = r->has_fmt ? r->fmt : fmt(r);
      ctl << "      r_" << sanitize(r->name) << " <= "
          << literal(static_cast<long long>(std::llround(std::ldexp(r->init, rf.frac_bits()))),
                     hdl_width(rf))
          << ";\n";
    }
    if (m_.kind == CompModel::Kind::kFsm)
      ctl << "      state <= ST_" << sanitize(m_.fsm->state_name(m_.fsm->initial_state()))
          << ";\n";
    ctl << "    end else begin\n";
    for (const auto& r : m_.regs)
      ctl << "      r_" << sanitize(r->name) << " <= r_" << sanitize(r->name) << "_next;\n";
    if (m_.kind == CompModel::Kind::kFsm) ctl << "      state <= state_next;\n";
    ctl << "    end\n  end\n";
  }
  out.controller = ctl.str();

  std::ostringstream full;
  if (vhdl) {
    full << out.entity << "\narchitecture rtl of " << m_.name << " is\n"
         << decl.str() << "begin\n"
         << dp.str() << "\n"
         << out.controller << "end rtl;\n";
  } else {
    full << out.entity << decl.str() << dp.str() << "\n" << out.controller
         << "endmodule\n";
  }
  out.full = full.str();
  return out;
}

}  // namespace

std::string generate_package(Dialect d) {
  if (d == Dialect::kVerilog) return "// saturation emitted inline; no package needed\n";
  return R"(library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package asicpp_pkg is
  -- Re-quantize x: remove `drop` fractional bits (negative drop adds
  -- zeros), rounding half away from zero when do_round, clamping to the
  -- out_w-bit signed range when do_sat (wrapping otherwise).
  function quantize(x : signed; drop : integer; do_round : boolean;
                    do_sat : boolean; out_w : natural) return signed;
end package;

package body asicpp_pkg is
  function quantize(x : signed; drop : integer; do_round : boolean;
                    do_sat : boolean; out_w : natural) return signed is
    constant ww : natural := x'length + out_w + 2;
    variable wide : signed(ww - 1 downto 0);
    variable half : signed(ww - 1 downto 0);
    variable r : signed(out_w - 1 downto 0);
  begin
    wide := resize(x, ww);
    if drop > 0 then
      if do_round then
        half := shift_left(to_signed(1, ww), drop - 1);
        if wide >= 0 then
          wide := shift_right(wide + half, drop);
        else
          wide := -shift_right(-wide + half, drop);
        end if;
      else
        wide := shift_right(wide, drop);
      end if;
    elsif drop < 0 then
      wide := shift_left(wide, -drop);
    end if;
    if do_sat and wide /= resize(resize(wide, out_w), ww) then
      if wide < 0 then
        r := (others => '0');
        r(out_w - 1) := '1';
      else
        r := (others => '1');
        r(out_w - 1) := '0';
      end if;
    else
      r := resize(wide, out_w);
    end if;
    return r;
  end function;
end package body;
)";
}

HdlComponent generate_component(Dialect d, sched::Component& comp) {
  return Writer(d, build_component_model(comp)).emit();
}

std::string generate_system(Dialect d, const sched::CycleScheduler& sys,
                            const std::string& top_name) {
  const bool vhdl = d == Dialect::kVhdl;
  std::ostringstream os;

  // Net widths from producing ports.
  std::map<const sched::Net*, int> net_width;
  std::vector<CompModel> models;
  for (sched::Component* c : sys.components()) {
    if (dynamic_cast<sched::UntimedComponent*>(c) != nullptr) continue;
    models.push_back(build_component_model(*c));
    CompModel& m = models.back();
    for (const auto& [port, net] : m.out_binds)
      net_width[net] = hdl_width(m.out_fmt.at(port));
  }

  if (vhdl) {
    os << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
    os << "entity " << sanitize(top_name) << " is\n  port (clk : in std_logic; rst : in std_logic);\n"
       << "end " << sanitize(top_name) << ";\n\narchitecture structure of "
       << sanitize(top_name) << " is\n";
    for (const auto& [net, w] : net_width)
      os << "  signal net_" << sanitize(net->name()) << " : signed(" << w - 1
         << " downto 0);\n";
    os << "begin\n";
  } else {
    os << "module " << sanitize(top_name) << " (input wire clk, input wire rst);\n";
    for (const auto& [net, w] : net_width)
      os << "  wire signed [" << w - 1 << ":0] net_" << sanitize(net->name()) << ";\n";
  }

  int idx = 0;
  for (const auto& m : models) {
    if (vhdl) {
      os << "  u" << idx << " : entity work." << m.name << " port map (clk => clk, rst => rst";
      if (m.kind == CompModel::Kind::kDispatch) {
        // the instruction net feeds the instr port
        os << ", " << m.instr_port << " => net_" << m.instr_port.substr(6);
      }
      for (const auto& [node, net] : m.in_binds)
        os << ", " << sanitize(node->name) << " => net_" << sanitize(net->name());
      for (const auto& [port, net] : m.out_binds)
        os << ", " << sanitize(port) << " => net_" << sanitize(net->name());
      os << ");\n";
    } else {
      os << "  " << m.name << " u" << idx << " (.clk(clk), .rst(rst)";
      if (m.kind == CompModel::Kind::kDispatch)
        os << ", ." << m.instr_port << "(net_" << m.instr_port.substr(6) << ")";
      for (const auto& [node, net] : m.in_binds)
        os << ", ." << sanitize(node->name) << "(net_" << sanitize(net->name()) << ")";
      for (const auto& [port, net] : m.out_binds)
        os << ", ." << sanitize(port) << "(net_" << sanitize(net->name()) << ")";
      os << ");\n";
    }
    ++idx;
  }
  os << (vhdl ? "end structure;\n" : "endmodule\n");
  return os.str();
}

}  // namespace asicpp::hdl
