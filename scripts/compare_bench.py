#!/usr/bin/env python3
"""Compare fresh BENCH_*.json snapshots against a committed baseline.

Matches benchmarks by name inside same-tag files and compares per-iteration
CPU time (wall time for old snapshots without the field). This is an
*enforcing* gate: any regression beyond the threshold
exits nonzero (CI fails), unless the benchmark is explicitly allowlisted or
--warn-only is set. Known-noisy benchmarks go on the allowlist — one
fnmatch pattern (`tag/name`, bare `name`, or a glob like `BM_Dect_Pipeline*`)
per --allowlist argument — where a regression still prints a warning
annotation but does not fail the run. Run the benches with
--benchmark_repetitions=N on both sides: repeated records min-merge, and
best-of-N is far less noise-prone than a single sample.

Baseline entries with no matching fresh result are reported as stale: a
renamed or deleted benchmark silently stops being compared otherwise, and
"the gate passed" would mean less than it reads.

A markdown summary table is appended to $GITHUB_STEP_SUMMARY (or the file
named by --summary) when set.

`--counter REF:COUNTER:TOL` (repeatable) gates a *user counter* instead of
a time: the counter's fresh value must stay within TOL (relative) of its
baseline value. Times drift with the runner; counters like a design's
area_um2 or fmax_mhz are deterministic outputs of the code, so a tight
tolerance (even 0) catches a characterization or optimizer change that
silently moves the implemented design. A counter missing from either side
fails the gate — a QoR number that stops being recorded is a gate that
stopped gating.

Besides the baseline diff, `--ratio SLOW:FAST:MIN` (repeatable) enforces a
relationship *within* the fresh run: the wall time of SLOW must be at
least MIN times that of FAST (e.g. a cold-cache compile vs its warm-cache
twin). Ratios compare wall time — compile benches spend their time in
host-compiler subprocesses invisible to process CPU time — and are
machine-independent, so they run even when no baseline exists.

Usage:
  python3 scripts/compare_bench.py --baseline bench/baseline --fresh . \
      [--threshold 0.25] [--allowlist tag/name ...] [--filter REGEX] \
      [--ratio SLOW:FAST:MIN ...] [--warn-only]
"""
import argparse
import fnmatch
import glob
import json
import os
import re
import sys


def load_dir(path, name_re=None, prefer_cpu=True):
    """tag -> {benchmark name -> seconds per iteration}

    Repeated records under one name (--benchmark_repetitions) min-merge:
    the best repetition is the least noise-contaminated measurement, so
    both sides of the comparison use it. prefer_cpu=False reads wall time
    unconditionally — the ratio gate needs it, because a compile benchmark
    spends its time in host-compiler subprocesses that process CPU time
    never sees.
    """
    out = {}
    for f in glob.glob(os.path.join(path, "BENCH_*.json")):
        with open(f) as fh:
            doc = json.load(fh)
        per_iter = {}
        for b in doc.get("benchmarks", []):
            if name_re is not None and not name_re.search(b["name"]):
                continue
            iters = b.get("iterations", 0)
            if iters > 0:
                # CPU time when the snapshot carries it (robust against
                # co-tenant load on shared runners), wall time for older
                # baselines that predate the field.
                if prefer_cpu:
                    secs = b.get("cpu_seconds") or b["wall_seconds"]
                else:
                    secs = b["wall_seconds"]
                t = secs / iters
                prev = per_iter.get(b["name"])
                per_iter[b["name"]] = t if prev is None else min(prev, t)
        if per_iter or name_re is None:
            out[doc.get("tag", os.path.basename(f))] = per_iter
    return out


def find_bench(snapshots, ref):
    """Look `ref` up across fresh snapshots; 'tag/name' or a bare name
    (unique across tags). Returns (display name, seconds) or None.
    """
    if "/" in ref:
        tag, _, name = ref.partition("/")
        benches = snapshots.get(tag, {})
        # A bare tag prefix may also be the head of a captured benchmark
        # name ('BM_X/variant'); fall through to the bare-name scan then.
        if name in benches:
            return f"{tag}/{name}", benches[name]
    hits = [(f"{tag}/{ref}", benches[ref])
            for tag, benches in sorted(snapshots.items()) if ref in benches]
    return hits[0] if len(hits) == 1 else None


def check_ratios(ratios, fresh_dir, warn_only=False):
    """Enforce --ratio SLOW:FAST:MIN specs against the fresh wall-clock
    snapshots. Baseline-independent: the two sides ran back to back on the
    same host, so the quotient is meaningful on any machine. Returns
    (failures, summary rows).
    """
    fresh = load_dir(fresh_dir, prefer_cpu=False)
    failures = 0
    rows = []

    def report(line):
        nonlocal failures
        if warn_only:
            print(f"::warning title=bench ratio::{line}")
        else:
            failures += 1
            print(f"::error title=bench ratio::{line}")
    for spec in ratios:
        parts = spec.rsplit(":", 2)
        try:
            slow_ref, fast_ref, min_ratio = parts[0], parts[1], float(parts[2])
        except (IndexError, ValueError):
            report(f"bad --ratio '{spec}', expected SLOW:FAST:MIN")
            continue
        slow = find_bench(fresh, slow_ref)
        fast = find_bench(fresh, fast_ref)
        if slow is None or fast is None:
            missing = slow_ref if slow is None else fast_ref
            report(f"'{missing}' produced no fresh result; the ratio gate "
                   f"cannot run")
            continue
        if fast[1] <= 0:
            report(f"'{fast_ref}' recorded zero wall time")
            continue
        ratio = slow[1] / fast[1]
        line = (f"ratio {slow[0]} / {fast[0]} = {ratio:.1f}x "
                f"(required >= {min_ratio:g}x; "
                f"{slow[1] * 1e3:.1f}ms vs {fast[1] * 1e3:.1f}ms)")
        if ratio < min_ratio:
            rows.append((slow[0], fast[0], ratio, min_ratio,
                         "warned" if warn_only else "**FAIL**"))
            report(line)
        else:
            rows.append((slow[0], fast[0], ratio, min_ratio, "ok"))
            print(line)
    return failures, rows


def load_counters(path):
    """tag -> {benchmark name -> {counter name -> value}}.

    Repeated records merge by first-seen value: counters gated here are
    deterministic design outputs (area, fmax), identical across
    repetitions, so any repetition is authoritative.
    """
    reserved = {"name", "iterations", "wall_seconds", "cpu_seconds"}
    out = {}
    for f in glob.glob(os.path.join(path, "BENCH_*.json")):
        with open(f) as fh:
            doc = json.load(fh)
        per = {}
        for b in doc.get("benchmarks", []):
            per.setdefault(b["name"], {k: v for k, v in b.items()
                                       if k not in reserved})
        out[doc.get("tag", os.path.basename(f))] = per
    return out


def find_counter(snapshots, ref, counter):
    """Look up `ref`'s counter across snapshots; 'tag/name' or a bare
    name unique across tags. Returns (display name, value) or None.
    """
    if "/" in ref:
        tag, _, name = ref.partition("/")
        ctrs = snapshots.get(tag, {}).get(name)
        if ctrs is not None and counter in ctrs:
            return f"{tag}/{name}", ctrs[counter]
    hits = [(f"{tag}/{ref}", benches[ref][counter])
            for tag, benches in sorted(snapshots.items())
            if ref in benches and counter in benches[ref]]
    return hits[0] if len(hits) == 1 else None


def check_counters(specs, baseline_dir, fresh_dir, warn_only=False):
    """Enforce --counter REF:COUNTER:TOL specs: the fresh value of the
    named user counter must be within TOL (relative to the baseline value,
    absolute when the baseline is zero) of the committed baseline. Returns
    (failures, summary rows).
    """
    if not specs:
        return 0, []
    base = load_counters(baseline_dir)
    fresh = load_counters(fresh_dir)
    failures = 0
    rows = []

    def report(line):
        nonlocal failures
        if warn_only:
            print(f"::warning title=bench counter::{line}")
        else:
            failures += 1
            print(f"::error title=bench counter::{line}")
    for spec in specs:
        parts = spec.rsplit(":", 2)
        try:
            ref, counter, tol = parts[0], parts[1], float(parts[2])
        except (IndexError, ValueError):
            report(f"bad --counter '{spec}', expected REF:COUNTER:TOL")
            continue
        got = find_counter(fresh, ref, counter)
        want = find_counter(base, ref, counter)
        if got is None or want is None:
            side = "fresh run" if got is None else "baseline"
            report(f"counter '{counter}' of '{ref}' missing from the {side}")
            continue
        drift = (abs(got[1] - want[1]) / abs(want[1]) if want[1] != 0
                 else abs(got[1]))
        line = (f"counter {got[0]}:{counter} = {got[1]:g} vs baseline "
                f"{want[1]:g} (drift {drift:.2%}, tolerance {tol:g})")
        if drift > tol:
            rows.append((got[0], counter, want[1], got[1], tol,
                         "warned" if warn_only else "**FAIL**"))
            report(line)
        else:
            rows.append((got[0], counter, want[1], got[1], tol, "ok"))
            print(line)
    return failures, rows


def allowlisted(allow, tag, name):
    """Each allowlist entry is an fnmatch pattern against 'tag/name' or bare
    'name' — exact names still match, and globs cover families like
    'BM_Dect_Pipeline*' (host-compiler timings are noisy on shared runners).
    """
    return any(fnmatch.fnmatch(f"{tag}/{name}", pat) or
               fnmatch.fnmatch(name, pat) for pat in allow)


def write_summary(path, rows, stale, threshold, regressed, waived,
                  ratio_rows=(), counter_rows=()):
    with open(path, "a") as fh:
        fh.write(f"### Bench gate ({threshold:.0%} threshold)\n\n")
        if rows:
            fh.write("| benchmark | baseline | current | ratio | verdict |\n")
            fh.write("|---|---|---|---|---|\n")
            for tag, name, t0, t, verdict in rows:
                fh.write(f"| `{tag}/{name}` | {t0 * 1e6:.2f}us "
                         f"| {t * 1e6:.2f}us | {t / t0:.0%} | {verdict} |\n")
            fh.write("\n")
        if counter_rows:
            fh.write("| counter | baseline | current | tolerance "
                     "| verdict |\n")
            fh.write("|---|---|---|---|---|\n")
            for ref, counter, want, got, tol, verdict in counter_rows:
                fh.write(f"| `{ref}:{counter}` | {want:g} | {got:g} "
                         f"| {tol:g} | {verdict} |\n")
            fh.write("\n")
        if ratio_rows:
            fh.write("| ratio | measured | required | verdict |\n")
            fh.write("|---|---|---|---|\n")
            for slow, fast, ratio, min_ratio, verdict in ratio_rows:
                fh.write(f"| `{slow}` / `{fast}` | {ratio:.1f}x "
                         f"| >= {min_ratio:g}x | {verdict} |\n")
            fh.write("\n")
        if stale:
            fh.write("**Stale baseline entries** (no matching fresh result "
                     "— renamed or deleted?):\n\n")
            for entry in stale:
                fh.write(f"- `{entry}`\n")
            fh.write("\n")
        fh.write(f"{len(rows)} compared, {regressed} failed, "
                 f"{waived} allowlisted.\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fail when current/baseline exceeds 1 + this "
                         "(default 0.25)")
    ap.add_argument("--allowlist", action="append", default=[],
                    metavar="TAG/NAME",
                    help="benchmark whose regression warns instead of "
                         "failing; fnmatch pattern against 'tag/name' or "
                         "bare 'name'; repeatable")
    ap.add_argument("--filter", metavar="REGEX",
                    help="compare only benchmarks whose name matches")
    ap.add_argument("--ratio", action="append", default=[],
                    metavar="SLOW:FAST:MIN",
                    help="fail unless fresh wall time of SLOW is at least "
                         "MIN times FAST (names are 'tag/name' or a bare "
                         "unique name); baseline-independent, repeatable")
    ap.add_argument("--counter", action="append", default=[],
                    metavar="REF:COUNTER:TOL",
                    help="fail when the named user counter of benchmark REF "
                         "drifts more than TOL (relative) from the baseline "
                         "value; REF is 'tag/name' or a bare unique name; "
                         "repeatable")
    ap.add_argument("--warn-only", action="store_true",
                    help="legacy advisory mode: annotate, never fail")
    ap.add_argument("--summary",
                    default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="append a markdown table here "
                         "(default: $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    name_re = re.compile(args.filter) if args.filter else None
    # The ratio gate is baseline-independent (both sides come from the same
    # fresh run), so it is checked even when there is no baseline to diff.
    ratio_failed, ratio_rows = check_ratios(args.ratio, args.fresh,
                                            args.warn_only)
    counter_failed, counter_rows = check_counters(
        args.counter, args.baseline, args.fresh, args.warn_only)
    base = load_dir(args.baseline, name_re)
    fresh = load_dir(args.fresh, name_re)
    if not base:
        print(f"no baseline snapshots under {args.baseline}; nothing to compare")
        return 1 if ratio_failed or counter_failed else 0
    if not fresh:
        print(f"::warning::no fresh BENCH_*.json under {args.fresh}")
        return 1 if ratio_failed or counter_failed else 0

    rows = []          # (tag, name, t0, t, verdict)
    stale = []         # baseline entries with no fresh counterpart
    compared = regressed = waived = 0
    for tag, benches in sorted(fresh.items()):
        ref = base.get(tag)
        if ref is None:
            # Missing baselines are a note, not a failure: a new bench file
            # lands before its snapshot does. Keep the note on stderr so it
            # survives stdout capture in CI.
            print(f"note: tag '{tag}' has no baseline snapshot, skipping",
                  file=sys.stderr)
            continue
        for name, t in sorted(benches.items()):
            t0 = ref.get(name)
            if t0 is None:
                print(f"note: {tag}/{name} missing from baseline, skipping",
                      file=sys.stderr)
                continue
            if t0 <= 0:
                continue
            compared += 1
            ratio = t / t0
            line = (f"{tag}/{name}: {t * 1e6:.2f}us vs baseline "
                    f"{t0 * 1e6:.2f}us ({ratio:.0%} of baseline)")
            if ratio > 1.0 + args.threshold:
                if args.warn_only or allowlisted(args.allowlist, tag, name):
                    waived += 1
                    rows.append((tag, name, t0, t, "allowlisted" if not
                                 args.warn_only else "warned"))
                    print(f"::warning title=bench regression::{line}")
                else:
                    regressed += 1
                    rows.append((tag, name, t0, t, "**FAIL**"))
                    print(f"::error title=bench regression::{line}")
            else:
                rows.append((tag, name, t0, t, "ok"))
                print(line)
        # Stale-baseline sweep: names the baseline still carries but no fresh
        # run produced — silence here would shrink the gate without anyone
        # noticing.
        for name in sorted(set(ref) - set(benches)):
            stale.append(f"{tag}/{name}")
            print(f"::warning title=stale bench baseline::{tag}/{name} is in "
                  f"the baseline but produced no fresh result")
    # A whole baseline tag with no fresh snapshot is the same silence one
    # level up: the bench binary stopped running (or was renamed) and every
    # entry under it went stale at once.
    for tag in sorted(set(base) - set(fresh)):
        for name in sorted(base[tag]):
            stale.append(f"{tag}/{name}")
        print(f"::warning title=stale bench baseline::tag '{tag}' is in the "
              f"baseline but no fresh BENCH_{tag}.json was produced")

    print(f"compared {compared} benchmark(s), {regressed} failed the "
          f"{args.threshold:.0%} threshold, {waived} allowlisted, "
          f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
          + (f", {ratio_failed} ratio check(s) failed" if args.ratio else "")
          + (f", {counter_failed} counter check(s) failed"
             if args.counter else ""))
    if args.summary:
        write_summary(args.summary, rows, stale, args.threshold, regressed,
                      waived, ratio_rows, counter_rows)
    return 1 if regressed or ratio_failed or counter_failed else 0


if __name__ == "__main__":
    sys.exit(main())
