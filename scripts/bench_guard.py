#!/usr/bin/env python3
"""Bench-regression guard: pin BENCH_JSON smoke counters.

Compares the BENCH_JSON lines of a fresh --smoke bench run against the
"smoke_baseline" section of a pinned bench JSON file (BENCH_ROUTING.json,
BENCH_FLOW.json, BENCH_INCREMENTAL.json, BENCH_PLACER.json).  The
interesting counters — maze expansions, queue pushes, wirelength,
critical paths, delta-path hits — are deterministic for the pinned
seeds, so a drift outside the tolerance band means an
algorithmic change, not machine noise.  Each out-of-band message says
whether the fresh value is above or below the pin and by how much (a
percentage of the pin; an absolute difference for a pinned zero).
Wall-clock keys (and wall-derived speedups) are never compared.

Usage:
  bench_guard.py --baseline BENCH_ROUTING.json --log smoke.log [--tolerance X]

The log is the tee'd stdout of a `--smoke` run; only lines starting with
"BENCH_JSON " are read.  Baseline entries are matched by (name, size);
every pinned entry must appear in the log (a missing line means a bench
section silently stopped running).  Unpinned log lines only warn, so
adding a measurement does not break CI until it is pinned.

Exit status: 0 = all pinned counters within tolerance, 1 = regression.
"""

import argparse
import json
import sys


def load_log_entries(path):
    """Parses BENCH_JSON lines into {(name, size): fields}.

    Duplicate (name, size) keys are a hard error: the guard would
    otherwise silently compare only the LAST occurrence, letting the
    earlier one drift unchecked (and a duplicate usually means two bench
    sections emit under one name — a bug either way).
    """
    entries = {}
    duplicates = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("BENCH_JSON "):
                continue
            fields = json.loads(line[len("BENCH_JSON "):])
            key = (fields["name"], fields.get("size"))
            if key in entries:
                duplicates.append((key, entries[key], fields))
            entries[key] = fields
    if duplicates:
        for key, first, second in duplicates:
            print(f"bench_guard: duplicate BENCH_JSON entry "
                  f"{key[0]}[size={key[1]}]:", file=sys.stderr)
            print(f"  first:  {json.dumps(first, sort_keys=True)}",
                  file=sys.stderr)
            print(f"  second: {json.dumps(second, sort_keys=True)}",
                  file=sys.stderr)
        raise SystemExit(1)
    return entries


def compare_value(key, pinned, fresh, tolerance, errors, label):
    """Appends to `errors` when `fresh` drifts outside the band."""
    if isinstance(pinned, bool) or isinstance(pinned, str):
        if fresh != pinned:
            errors.append(f"{label}: {key} changed {pinned!r} -> {fresh!r}")
        return
    if not isinstance(pinned, (int, float)):
        return  # nested/unknown shapes are not pinned
    if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
        errors.append(f"{label}: {key} is no longer numeric ({fresh!r})")
        return
    # Relative band around the pinned value; small absolute slack so a
    # pinned zero (e.g. stale_pops on a small route) tolerates noise-level
    # counts without a divide-by-zero special case.
    band = max(2.0, tolerance * abs(pinned))
    if abs(fresh - pinned) > band:
        # Say which way the counter moved so a deliberate work cut reads
        # differently from a regression when re-pinning.
        direction = "above" if fresh > pinned else "below"
        if pinned:
            drift = f"{abs(fresh - pinned) / abs(pinned):.1%}"
        else:
            drift = f"{abs(fresh - pinned):g}"
        errors.append(
            f"{label}: {key} {fresh} is {drift} {direction} pin {pinned} "
            f"(band +/- {band:g}, tolerance {tolerance:.0%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="pinned bench JSON with a smoke_baseline section")
    parser.add_argument("--log", required=True,
                        help="stdout of the --smoke run to check")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="relative band (default: baseline's, else 0.25)")
    args = parser.parse_args()

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    smoke = baseline.get("smoke_baseline")
    if not smoke:
        print(f"bench_guard: {args.baseline} has no smoke_baseline section",
              file=sys.stderr)
        return 1

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(smoke.get("tolerance", 0.25))
    ignored = set(smoke.get("ignored_keys", ["wall_ms", "speedup"]))
    ignored.update({"name", "size"})

    fresh_entries = load_log_entries(args.log)
    errors = []
    checked = 0
    for pinned in smoke.get("results", []):
        key = (pinned["name"], pinned.get("size"))
        label = f"{key[0]}[size={key[1]}]"
        fresh = fresh_entries.pop(key, None)
        if fresh is None:
            errors.append(f"{label}: pinned measurement missing from the run")
            continue
        for field, value in pinned.items():
            if field in ignored:
                continue
            compare_value(field, value, fresh.get(field), tolerance, errors,
                          label)
            checked += 1

    for key in sorted(fresh_entries):
        print(f"bench_guard: note: {key[0]}[size={key[1]}] is not pinned in "
              f"{args.baseline}")

    if errors:
        print(f"bench_guard: {len(errors)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"bench_guard: {checked} counters within {tolerance:.0%} of "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
