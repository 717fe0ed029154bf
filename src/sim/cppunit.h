// The C++ translation unit of a compiled system.
//
// CompiledSystem::emit_unit writes the optimized tapes as one C++ unit:
// one function per tape, per-component try functions, and the four-phase
// cycle as extern "C" entry points. Every function takes a JitState block
// instead of touching file globals, so the same text serves two execution
// forms:
//
//   * the in-process JIT (src/jit) compiles it to a shared object and
//     points the block at a width-1 sim::LaneDriver's arrays — one object
//     drives any number of instances, and the host keeps owning slots,
//     tokens, external drives and snapshots;
//   * CompiledSystem::emit_cpp appends a main() driver with image-seeded
//     static arrays — the standalone simulator of Fig 7.
//
// Exported symbols:
//
//   void asicpp_jit_begin(St*)            phases 0-1: flags, FSM select, tokens
//   int  asicpp_jit_try_slot(St*, int k)  fire level-order slot k
//   int  asicpp_jit_finish(St*)           phase-2 sweep + phase 3; retry
//                                          passes, or -1 on st->deadlock
//   int  asicpp_jit_cycle(St*, int walk)  begin, level walk if `walk`, finish
//   unsigned asicpp_jit_abi(void)         kJitAbi
//   unsigned long long asicpp_jit_ir_hash(void)  CompiledSystem::state_hash()
#pragma once

#include <cstdint>

namespace asicpp::sim {

/// ABI revision of the state struct / exported symbols; a loaded object
/// must report the same value.
inline constexpr std::uint32_t kJitAbi = 1;

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
