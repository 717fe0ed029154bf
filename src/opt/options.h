// Pass-pipeline configuration, set on each SFG (Sfg::set_pass_options,
// CycleScheduler::set_pass_options) and passed to the engines' compiles.
//
// Every field is an independent toggle so each pass can be exercised (or
// excluded) on its own, both in unit tests and through the differential
// fuzzer's passes-on/off axis. `lower` is the master switch: with it off
// the interpreted engines fall back to the original recursive graph walk
// and the tape/codegen/HDL consumers lower without optimizing, which keeps
// the pre-IR behaviour reachable as a differential reference.
#pragma once

namespace asicpp::opt {

struct PassOptions {
  bool lower = true;         ///< consume the lowered IR (off: legacy walks)
  bool canonicalize = true;  ///< commutative operand ordering
  bool fold = true;          ///< constant folding
  bool identities = true;    ///< algebraic identity simplification
  bool cse = true;           ///< structural-hashing common-subexpression elim
  bool dce = true;           ///< dead-instruction elimination

  /// Everything off: raw lowering, legacy interpreted evaluation.
  static PassOptions none() {
    PassOptions p;
    p.lower = p.canonicalize = p.fold = p.identities = p.cse = p.dce = false;
    return p;
  }
  /// Lowered IR consumed, but no transformation applied.
  static PassOptions raw() {
    PassOptions p = none();
    p.lower = true;
    return p;
  }

  bool any_pass() const {
    return canonicalize || fold || identities || cse || dce;
  }

  bool operator==(const PassOptions&) const = default;
};

/// What the pipeline did to one lowered SFG.
struct PassStats {
  int instrs_before = 0;
  int instrs_after = 0;
  int canonicalized = 0;  ///< operand pairs reordered
  int folded = 0;         ///< instructions replaced by constants
  int simplified = 0;     ///< algebraic identities applied
  int cse_hits = 0;       ///< duplicate instructions merged
  int dead = 0;           ///< unreferenced instructions removed

  PassStats& operator+=(const PassStats& o) {
    instrs_before += o.instrs_before;
    instrs_after += o.instrs_after;
    canonicalized += o.canonicalized;
    folded += o.folded;
    simplified += o.simplified;
    cse_hits += o.cse_hits;
    dead += o.dead;
    return *this;
  }
};

}  // namespace asicpp::opt
