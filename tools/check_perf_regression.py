#!/usr/bin/env python3
"""CI perf gate for the numeric hot paths.

Compares a freshly measured BENCH_hotpaths.json against the checked-in
baseline and fails (exit 1) when any batched kernel's speedup over its
scalar twin regressed by more than the tolerance (default 25%).

The gate is ratio-based on purpose: absolute ns/op numbers are
machine-speed artifacts, but "how much faster is the batched kernel than
the scalar one on the same machine, same run" transfers across runners.
`system_step` and `profile_refit` have no scalar twin and are recorded
for trajectory only.

Speedup ratios do NOT transfer across SIMD ISAs or native/portable
builds: an AVX2 baseline would spuriously fail on an SSE2 or
forced-scalar runner (and vice versa).  When the two reports' stamps
disagree on `simd_isa` or `native`, the gate refuses the comparison —
prints SKIPPED and exits 0 — instead of emitting a bogus verdict.
CI keeps one baseline per (isa, native) leg it gates.

Usage:
    check_perf_regression.py BASELINE CURRENT [--tolerance 0.25]
        [--section hotpaths]
    check_perf_regression.py REPORT --report-only [--section fleet]

`--section` selects which report section holds the gated ratios:
`hotpaths` (the default, BENCH_hotpaths.json) or any other section of
`"name": {"speedup": r}` entries — e.g. `--section ingest_ratios` for
BENCH_ingest.json once an ingestion baseline lands.

`--report-only` takes a single report and prints every numeric field of
the section without gating anything (always exit 0).  CI uses it for
BENCH_fleet.json — the fleet sweep trends offices/sec, ticks/sec, and
bytes-per-office across PRs but has no ratchet yet (absolute throughput
is a machine-speed artifact and the sweep has no scalar twin to ratio
against).

Regenerating the baseline (after an intentional kernel change):
    FADEWICH_BENCH_FAST=1 ./build/bench/bench_micro_hotpaths --fast \
        bench/BENCH_hotpaths.baseline.json

Verifying the gate bites: FADEWICH_BENCH_HANDICAP=<hotpath name> makes
bench_micro_hotpaths run that kernel's batched side twice (a synthetic
2x slowdown); the gate must then fail.
"""

import argparse
import json
import sys


def load_report(path, section):
    with open(path) as f:
        doc = json.load(f)
    if section not in doc:
        sys.exit(f"{path}: no {section!r} section (wrong schema?)")
    return doc


def comparable(baseline, current):
    """None when the stamps allow a ratio comparison, else the reason.

    Reports older than schema /2 carry no simd_isa/native stamp; a
    missing key is treated as unknown and only mismatches between two
    *present* values refuse the comparison (so pre-SIMD baselines keep
    gating until regenerated).
    """
    for key in ("simd_isa", "native"):
        b, c = baseline.get(key), current.get(key)
        if b is not None and c is not None and b != c:
            return f"{key} mismatch: baseline {b!r} vs current {c!r}"
    return None


def report_only(path, section):
    """Print every numeric field of the section, gate nothing."""
    doc = load_report(path, section)
    stamp = ", ".join(
        f"{key}={doc[key]!r}" for key in
        ("git_sha", "threads", "fast_mode", "simd_isa", "native")
        if key in doc)
    print(f"{path} [{stamp}]")
    for name, entry in sorted(doc[section].items()):
        if not isinstance(entry, dict):
            continue
        fields = ", ".join(
            f"{key}={value:g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in entry.items()
            if isinstance(value, (int, float)) and
            not isinstance(value, bool))
        print(f"  {name}: {fields}")
    print(f"\nreport-only: {section!r} section trended, nothing gated")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?",
                        help="measured report to gate against the "
                             "baseline; omitted with --report-only")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional speedup regression "
                             "(default 0.25)")
    parser.add_argument("--section", default="hotpaths",
                        help="report section holding the gated "
                             "'speedup' entries (default: hotpaths)")
    parser.add_argument("--report-only", action="store_true",
                        help="print the section's numeric fields from a "
                             "single report; no gating, exit 0")
    args = parser.parse_args()

    if args.report_only:
        return report_only(args.baseline, args.section)
    if args.current is None:
        parser.error("CURRENT is required unless --report-only is given")

    baseline_doc = load_report(args.baseline, args.section)
    current_doc = load_report(args.current, args.section)

    reason = comparable(baseline_doc, current_doc)
    if reason is not None:
        print(f"SKIPPED: reports are not comparable ({reason}); "
              "ratio gating needs a baseline from the same ISA/build leg")
        return 0

    baseline = baseline_doc[args.section]
    current = current_doc[args.section]

    failures = []
    checked = 0
    for name, base in sorted(baseline.items()):
        if "speedup" not in base:
            continue  # trajectory-only entry (system_step)
        if name not in current:
            failures.append(f"{name}: missing from current report")
            continue
        cur = current[name]
        if "speedup" not in cur:
            failures.append(f"{name}: current report has no speedup")
            continue
        floor = base["speedup"] * (1.0 - args.tolerance)
        status = "OK" if cur["speedup"] >= floor else "REGRESSED"
        print(f"{name}: baseline speedup {base['speedup']:.3f}, "
              f"current {cur['speedup']:.3f}, floor {floor:.3f} "
              f"[{status}]")
        checked += 1
        if cur["speedup"] < floor:
            failures.append(
                f"{name}: speedup {cur['speedup']:.3f} fell below "
                f"{floor:.3f} ({args.tolerance:.0%} under baseline "
                f"{base['speedup']:.3f})")
    for name, cur in sorted(current.items()):
        if "ns_per_op" in cur:
            print(f"{name}: {cur['ns_per_op']:.1f} ns/op "
                  "(trajectory only, not gated)")

    if checked == 0:
        failures.append("no gated hot paths found in the baseline")
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {checked} hot paths within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
