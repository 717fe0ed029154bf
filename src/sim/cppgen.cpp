// C++ source regeneration from the compiled-tape form (Fig 7).
//
// The standalone simulator is the compiled system's C++ unit (emit_unit,
// the JIT's parts as one file) plus the main() driver written here: static
// arrays seeded from the current image, a token clear with the frozen pin
// drives each cycle, asicpp_jit_cycle, and one printed line per watched
// net. The output depends on no library; an integration test compiles it
// with the host compiler and checks it reproduces the in-process
// simulation exactly.
#include <ostream>
#include <stdexcept>

#include "opt/semantics.h"
#include "sim/compiled.h"

namespace asicpp::sim {

void CompiledSystem::emit_cpp(std::ostream& os,
                              const std::vector<std::string>& watch_nets,
                              std::uint64_t run_cycles) const {
  const Image& m = *img_;
  for (const auto& c : m.comps) {
    if (c.kind == Image::Kind::kUntimed)
      throw std::invalid_argument("emit_cpp: untimed component '" + c.name +
                                  "' cannot be regenerated");
  }

  emit_unit(os);

  const std::size_t n = m.comps.size();
  const auto list = [&](std::size_t count, const auto& item) {
    os << " = {";
    for (std::size_t i = 0; i < count; ++i) os << (i ? ", " : "") << item(i);
    os << "};\n";
  };
  os << "\n// Standalone driver (compiled-code simulation, Fig 7 of DAC'98).\n";
  os << "#include <cstdio>\n\n";
  os << "static double S[" << slots_.size() << "]";
  list(slots_.size(), [&](std::size_t i) { return opt::cpp_double_lit(slots_[i]); });
  os << "static unsigned char T[" << tok_.size() << "];\n";
  os << "static int state[" << n << "]";
  list(n, [&](std::size_t i) { return state_[i]; });
  os << "static int fired[" << n << "], sel[" << n << "], pending[" << n << "];\n";
  os << "static const char* const names[" << n << "]";
  list(n, [&](std::size_t i) { return '"' + m.comps[i].name + '"'; });

  os << "\nint main() {\n";
  os << "  St st = {S, T, state, fired, sel, pending};\n";
  os << "  for (unsigned long long c = 0; c < " << run_cycles << "ULL; ++c) {\n";
  os << "    for (unsigned i = 0; i < sizeof(T); ++i) T[i] = 0;\n";
  for (std::size_t i = 0; i < m.nets.size(); ++i) {
    if (m.nets[i]->driven())
      os << "    S[" << m.net_slots[i]
         << "] = " << opt::cpp_double_lit(m.nets[i]->drive_value().value())
         << "; T[" << i << "] = 1;\n";
  }
  // Pinning the mode to kIterative before emit_cpp() drops the level walk:
  // the sweep loop alone then drives phase 2.
  os << "    if (asicpp_jit_cycle(&st, " << (core_.mode != ScheduleMode::kIterative)
     << ") < 0) {\n";
  os << "      if (st.deadlock == 2) {\n"
     << "        std::printf(\"ERROR at cycle %llu: component %s: unknown opcode "
        "%lld and no default\\n\", c, names[st.dl_comp], st.dl_op);\n"
     << "        return 4;\n      }\n";
  // Every unfired component is named except an FSM with no enabled
  // transition (pending < 0); pending[] is written for FSMs only, so it
  // stays 0 for the other kinds.
  os << "      std::printf(\"DEADLOCK at cycle %llu: unfired components:\", c);\n"
     << "      for (int i = 0; i < " << n << "; ++i)\n"
     << "        if (!fired[i] && pending[i] >= 0) std::printf(\" %s\", names[i]);\n"
     << "      std::printf(\"\\n\");\n      return 3;\n    }\n";
  for (const auto& w : watch_nets) {
    const auto it = m.net_ids.find(w);
    if (it == m.net_ids.end())
      throw std::out_of_range("emit_cpp: no net '" + w + "'");
    os << "    std::printf(\"%.17g\\n\", S["
       << m.net_slots[static_cast<std::size_t>(it->second)] << "]);\n";
  }
  os << "  }\n  return 0;\n}\n";
}

}  // namespace asicpp::sim
