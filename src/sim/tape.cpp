#include "sim/tape.h"

#include "opt/semantics.h"

namespace asicpp::sim {

void exec(const Tape& tape, double* s, const fixpt::Quantizer* quantizers) {
  for (const Instr& i : tape) {
    if (i.q >= 0) {  // kCast, or a quantized copy
      s[i.dst] = quantizers[i.q](s[i.a]);
    } else if (i.op == sfg::Op::kCount) {
      s[i.dst] = s[i.a];
    } else {
      s[i.dst] = opt::apply_op_value(i.op, s[i.a], i.b >= 0 ? s[i.b] : 0.0,
                                     i.c >= 0 ? s[i.c] : 0.0, i.fmt);
    }
  }
}

}  // namespace asicpp::sim
