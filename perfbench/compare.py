#!/usr/bin/env python3
"""Compare two sets of benchmark result records metric by metric.

Usage:

    python3 perfbench/compare.py --base A1.json [A2.json ...] \\
                                 --change B1.json [B2.json ...]

Each file is a record written by run.py (.bench_build/perfbench/results/).
Records are grouped by workload and traced/untraced run; every metric of a
group gets one row with each side's median and quartiles and a label:

  improved    better than the base by more than the bound (and, where the
              run-to-run spread exceeds the bound, every change run beats
              every base run);
  worse       worse than the base by more than the bound (same rule);
  unchanged   within the bound, with spreads inside it;
  unresolved  the spread is wider than the bound and the runs overlap.

End-to-end bounds come from the BENCHMARK.json at the repository root.
Per-layer metrics have no bound: counts must match exactly to be
unchanged, times must separate to be labelled. Records from different
hosts (CPU model, nproc, compiler, build type) are refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def load(paths):
    records = []
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        record["_path"] = str(path)
        records.append(record)
    return records


def host_of(record):
    return tuple(record["host"].get(key, "?") for key in HOST_KEYS)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def label(base, change, better, bound):
    """One row's verdict; bound None means an exact-count or separation rule."""
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (cmed - bmed) / abs(bmed) if bmed else sign * (cmed - bmed)
    spread = max((b3 - b1) / abs(bmed) if bmed else 0,
                 (c3 - c1) / abs(cmed) if cmed else 0)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    all_worse = max(sign * c for c in change) < min(sign * b for b in base)
    if bound is None:
        if bmed == cmed and spread == 0:
            return gain, spread, "unchanged"
        if spread == 0:
            return gain, spread, "improved" if gain > 0 else "worse"
        if all_better:
            return gain, spread, "improved"
        if all_worse:
            return gain, spread, "worse"
        return gain, spread, "unresolved"
    if spread > bound:
        if all_better:
            return gain, spread, "improved"
        if all_worse:
            return gain, spread, "worse"
        return gain, spread, "unresolved"
    if gain > bound:
        return gain, spread, "improved"
    if gain < -bound:
        return gain, spread, "worse"
    return gain, spread, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, change = load(args.base), load(args.change)

    hosts = {host_of(r) for r in base + change}
    if len(hosts) > 1:
        print("records come from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print("  " + " | ".join(host), file=sys.stderr)
        return 2
    for record in base + change:
        if not record.get("correct", False):
            print(f"warning: {record['_path']} failed its checks", file=sys.stderr)

    def groups(records):
        out = {}
        for record in records:
            out.setdefault((record["workload"], record["trace"]), []).append(record)
        return out

    base_groups, change_groups = groups(base), groups(change)
    print(f"{'workload':13} {'metric':34} {'base median [q1, q3]':>34} "
          f"{'change median':>14} {'gain':>8} {'bound':>6}  label")
    for key in sorted(set(base_groups) & set(change_groups)):
        workload, trace = key
        section = "per_layer" if trace else "end_to_end"
        names = list(e2e if not trace else layers)
        configs = {json.dumps(r["config"], sort_keys=True)
                   for r in base_groups[key] + change_groups[key]}
        if len(configs) > 1:
            print(f"warning: {workload} runs differ in configuration",
                  file=sys.stderr)
        for name in names:
            bvals = [r[section][name]["value"] for r in base_groups[key]
                     if name in r[section]]
            cvals = [r[section][name]["value"] for r in change_groups[key]
                     if name in r[section]]
            if not bvals or not cvals:
                continue
            meta = (e2e if not trace else layers)[name]
            bound = meta.get("bound")
            gain, _, verdict = label(bvals, cvals, meta["better"], bound)
            b1, bmed, b3 = quartiles(bvals)
            _, cmed, _ = quartiles(cvals)
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:13} {name:34} {bmed:14.6g} [{b1:.6g}, {b3:.6g}]"
                  f" {cmed:14.6g} {100 * gain:+7.1f}% {bound_text:>6}  {verdict}")
    only = set(base_groups) ^ set(change_groups)
    for workload, trace in sorted(only):
        print(f"note: {workload} (trace {trace}) has runs on one side only",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
