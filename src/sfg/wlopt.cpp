#include "sfg/wlopt.h"

#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "sfg/eval.h"
#include "sfg/wordlen.h"

namespace asicpp::sfg {

namespace {

/// Set a knob's fractional precision, keeping its integer range.
void set_frac(Node* n, int frac) {
  n->fmt.wl = n->fmt.iwl + frac + (n->fmt.is_signed ? 1 : 0);
  n->has_fmt = true;
}

int frac_of(const Node* n) { return n->fmt.frac_bits(); }

struct Knob {
  Node* node;
  std::string name;
};

void collect_knobs(const NodePtr& n, std::vector<Knob>& knobs,
                   std::unordered_set<const Node*>& seen) {
  if (!seen.insert(n.get()).second) return;
  if (n->op == Op::kReg)
    knobs.push_back(Knob{n.get(), n->name});
  else if (n->op == Op::kCast)
    knobs.push_back(Knob{n.get(), "cast@" + std::to_string(n->id)});
  for (const auto& a : n->args) collect_knobs(a, knobs, seen);
}

}  // namespace

WlOptResult optimize_wordlengths(Sfg& s, Clk& clk, const WlOptSpec& spec) {
  s.analyze();
  if (s.outputs().empty())
    throw std::invalid_argument("optimize_wordlengths: sfg has no outputs");
  for (const auto& in : s.inputs()) {
    if (!in->has_fmt)
      throw std::invalid_argument("optimize_wordlengths: input '" + in->name +
                                  "' has no format to stimulate from");
  }

  std::vector<Knob> knobs;
  std::unordered_set<const Node*> seen;
  for (const auto& o : s.outputs()) collect_knobs(o.expr, knobs, seen);
  for (const auto& a : s.reg_assigns()) {
    collect_knobs(a.expr, knobs, seen);
    if (seen.insert(a.reg.get()).second)
      knobs.push_back(Knob{a.reg.get(), a.reg->name});
  }

  // Pre-generate the stimulus so every trial sees identical inputs.
  std::mt19937 rng(spec.seed);
  std::vector<std::vector<double>> stim(static_cast<std::size_t>(spec.vectors));
  for (auto& v : stim) {
    for (const auto& in : s.inputs()) {
      std::uniform_real_distribution<double> d(in->fmt.min_value(), in->fmt.max_value());
      v.push_back(fixpt::quantize(d(rng), in->fmt));
    }
  }

  // One simulation run; returns per-cycle output samples. The knob formats
  // changed behind the Sfg's cache, so the lowered form is rebuilt first.
  const auto run = [&](std::vector<double>& out_samples) {
    s.invalidate_lowered();
    clk.reset();
    for (const auto& v : stim) {
      std::size_t k = 0;
      for (const auto& in : s.inputs()) in->value = fixpt::Fixed(v[k++]);
      s.eval();
      for (const auto& o : s.outputs()) out_samples.push_back(o.expr->value.value());
      s.update_registers();
    }
  };

  // Reference: generous precision on every knob.
  std::vector<int> saved_frac;
  for (const auto& kb : knobs) saved_frac.push_back(frac_of(kb.node));
  for (const auto& kb : knobs) set_frac(kb.node, 24);
  std::vector<double> reference;
  run(reference);

  const auto rms_vs_reference = [&]() {
    std::vector<double> trial;
    run(trial);
    double acc = 0.0;
    for (std::size_t i = 0; i < trial.size(); ++i) {
      const double d = trial[i] - reference[i];
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(trial.size()));
  };

  // Start at max_frac everywhere (must satisfy the budget; if not, the
  // budget is infeasible for this search space).
  for (const auto& kb : knobs) set_frac(kb.node, spec.max_frac);
  double err = rms_vs_reference();
  if (err > spec.error_budget) {
    // Restore and report the infeasibility through the result.
    for (std::size_t i = 0; i < knobs.size(); ++i) set_frac(knobs[i].node, saved_frac[i]);
    s.invalidate_lowered();
    WlOptResult r;
    r.rms_error = err;
    r.knobs = static_cast<int>(knobs.size());
    return r;
  }

  // Greedy descent: repeatedly drop one fractional bit from the knob that
  // keeps the error smallest, while the budget holds.
  bool progress = true;
  while (progress) {
    progress = false;
    std::size_t best = knobs.size();
    double best_err = spec.error_budget;
    for (std::size_t i = 0; i < knobs.size(); ++i) {
      const int cur = frac_of(knobs[i].node);
      if (cur <= spec.min_frac) continue;
      set_frac(knobs[i].node, cur - 1);
      const double e = rms_vs_reference();
      set_frac(knobs[i].node, cur);
      if (e <= best_err) {
        best_err = e;
        best = i;
      }
    }
    if (best < knobs.size()) {
      set_frac(knobs[best].node, frac_of(knobs[best].node) - 1);
      err = best_err;
      progress = true;
    }
  }

  WlOptResult r;
  r.rms_error = err;
  r.knobs = static_cast<int>(knobs.size());
  for (const auto& kb : knobs) {
    const int f = frac_of(kb.node);
    r.frac_bits[kb.name] = f;
    r.bits_saved += spec.max_frac - f;
  }
  // The chosen formats were set after the last run: resolve them again.
  s.invalidate_lowered();
  clk.reset();
  return r;
}

}  // namespace asicpp::sfg
