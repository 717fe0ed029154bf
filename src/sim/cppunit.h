// The C++ translation unit of a compiled system.
//
// Image::emit_parts writes the optimized tapes as C++: one function per
// tape, per-component try functions, and the four-phase cycle as extern
// "C" entry points. Every function takes a JitState block instead of
// touching file globals, so the same text serves two execution forms:
//
//   * the in-process JIT (src/jit) compiles it to a shared object and
//     points the block at a width-1 sim::LaneDriver's arrays — one object
//     drives any number of instances, and the host keeps owning slots,
//     tokens, external drives and snapshots;
//   * CompiledSystem::emit_cpp appends a main() driver with image-seeded
//     static arrays — the standalone simulator of Fig 7.
//
// The text is a prelude plus one body per part of Image::parts. The
// prelude includes no header (the rounding helpers call GCC/Clang
// builtins) and, for a split unit, declares each part's entry functions.
// A part holds whole components: their SFG functions and try functions
// stay static, and five functions per part — phase-0 select, phase-1
// tokens, the part's share of the level walk, one sweep step and the
// phase-3 commit — are what the entry points call. The last body carries
// the entry points, so its own five are static and the host compiler
// inlines them; the other parts' have hidden visibility
// (external to the part, internal to the shared object) and are declared
// in the prelude. A one-part unit is just the last part. The
// parts are ordered so every dependency points forward, so walking them
// in order is a valid level walk: one call per part per phase. The sweep
// keeps component index order, calling into a part only for a component
// that has not fired. prelude + body[k] compiles on its own (the JIT
// builds the parts concurrently and links them); prelude + every body is
// one unit (CompiledSystem::emit_unit, emit_cpp).
//
// Exported symbols:
//
//   int  asicpp_jit_cycle(St*, int walk)  phases 0-1 (flags, FSM select,
//                                          tokens), the level walk if
//                                          `walk`, the phase-2 sweep and
//                                          phase 3; returns the retry
//                                          passes, or -1 on st->deadlock
//   unsigned asicpp_jit_abi(void)         kJitAbi
//   unsigned long long asicpp_jit_ir_hash(void)  CompiledSystem::state_hash()
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asicpp::sim {

/// The emitted unit for separate compilation: part k's source is
/// prelude + bodies[k]; prelude + every body in order is the whole unit.
struct UnitParts {
  std::string prelude;
  std::vector<std::string> bodies;
};

/// ABI revision of the state struct / exported symbols; a loaded object
/// must report the same value.
inline constexpr std::uint32_t kJitAbi = 2;

/// The state block handed to every generated function. Mirrored textually
/// in the emitted source; any change here bumps kJitAbi. The per-component
/// arrays are laid out like sim::LaneDriver's at width 1, so the JIT points
/// them straight at the driver.
struct JitState {
  double* S = nullptr;         ///< slot array
  unsigned char* T = nullptr;  ///< net token flags
  int* state = nullptr;        ///< per-component FSM state
  int* fired = nullptr;        ///< per-component fired flag
  int* sel = nullptr;          ///< per-component selected dispatch SFG
  int* pending = nullptr;      ///< per-component pending FSM transition
  int deadlock = 0;   ///< 0 none, 1 combinational, 2 unknown opcode, 3 host ex
  int dl_comp = 0;    ///< component index for deadlock == 2
  long long dl_op = 0;  ///< offending opcode for deadlock == 2
  void* host = nullptr;
  /// Host callback firing untimed component `comp` (native C++ closures
  /// stay on the host side). Returns 1 fired, 0 inputs missing, -1 the
  /// closure threw (the host rethrows after the cycle call unwinds).
  int (*fire_untimed)(void* host, int comp) = nullptr;
};

}  // namespace asicpp::sim
