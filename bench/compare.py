#!/usr/bin/env python3
"""Compare benchmark result files of a parent commit and a change.

    python3 bench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Inputs are the ``BENCH_*.json`` files that ``bench/run.py`` writes to
``.bench_out/`` (a directory stands for all of them in it).  Runs pair up by
workload, trace mode and seed, so run parent and change alternately on the
same seeds.  One row per workload and metric gives each side's median and
quartiles, the change's wins over the pairs and a verdict:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither), there are at least ten pairs, and the medians differ by more
  than the parent's inter-quartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own spread (inter-quartile range over median)
  is wider than that bound, unless every change run beats every parent run;
* ``within bound`` / ``no claim`` otherwise.

Count metrics (units ``count`` and ``ratio``, such as ``converged_frac``,
``undecided_levels`` and ``*.calls``) are compared as exact counts: ``same``
or ``changed``, never as a speed-up.  A gain does not count when the change
failed more answer checks than the parent.  Exit code 1 when any metric
regressed.  Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

COUNT_UNITS = ("count", "ratio")


def load(paths):
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    runs = defaultdict(list)
    for f in files:
        data = json.loads(f.read_text())
        meta = data["meta"]
        runs[(meta["workload"], meta["trace"], meta["seed"])].append(data)
    for group in runs.values():
        group.sort(key=lambda d: d["meta"]["utc"])
    return runs


def pairs(parent, change):
    """(workload, trace) -> list of (parent run, change run) on equal seeds."""
    out = defaultdict(list)
    for key in sorted(set(parent) & set(change), key=str):
        workload, trace, _ = key
        out[(workload, trace)] += list(zip(parent[key], change[key]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(p_vals, c_vals, wins, better, unit, bound, more_failures):
    if unit in COUNT_UNITS:
        return "same" if p_vals == c_vals else "changed"
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    q1, q3 = quartiles(p_vals)
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    all_better = (max(c_vals) < min(p_vals)) if sign > 0 else (min(c_vals) > max(p_vals))
    if len(p_vals) >= 10 and wins >= 0.9 * len(p_vals) and gain > q3 - q1:
        return "gain (void: more failures)" if more_failures else "gain"
    if bound is None:
        return "no claim"
    if p_med and (q3 - q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return "regression"
    return "within bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    regressed = False
    header = f"{'workload':<12} {'t':>1} {'metric':<44} {'unit':<6} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>7}  verdict"
    print(header)
    for (workload, trace), runs in pairs(load(args.parent), load(args.change)).items():
        failed_p = sum(p["failed"] for p, _ in runs)
        failed_c = sum(c["failed"] for _, c in runs)
        names = [n for n in runs[0][0]["metrics"] if all(n in p["metrics"] and n in c["metrics"] for p, c in runs)]
        for name in names:
            entry = runs[0][0]["metrics"][name]
            p_vals = [p["metrics"][name]["value"] for p, _ in runs]
            c_vals = [c["metrics"][name]["value"] for _, c in runs]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            wins = sum(sign * (p - c) > 0 for p, c in zip(p_vals, c_vals))
            v = verdict(p_vals, c_vals, wins, entry["better"], entry["unit"],
                        bounds.get(name) if not trace else None, failed_c > failed_p)
            regressed |= v == "regression"
            cells = []
            for vals in (p_vals, c_vals):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<12} {trace:>1} {name:<44} {entry['unit']:<6} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:>3}/{len(runs):<3}  {v}")
        print(f"{workload:<12} {trace:>1} {'answers failed (parent, change)':<44} {'count':<6} "
              f"{failed_p:>34} {failed_c:>34}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
