"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py parent.json change.json

Both files come from `collect.py` (run with the same benchmark code, seeds and
`run_seconds` on both sides).  For each workload and end-to-end metric it
prints each side's median and quartiles, the share of seed-paired runs that
the change won, and a verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither side) and its median is better than the parent's by more than
  the parent's own interquartile distance;
- unresolved: otherwise, when the parent's interquartile distance is wider
  than the metric's bound, unless every run of the change reads better than
  every run of the parent (then: unchanged);
- worse: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- unchanged: everything else.

It also prints each side's failed share, and the traced per-layer values
that differ by more than a tenth, when both files have a traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict for one metric, and the share of pairs the change won."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if (c - p) * sign > 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = (cm - pm) * sign
    if won >= 0.9 and gain > p3 - p1:
        return "improved", won
    if p3 - p1 > bound * pm:
        if all((c - p) * sign > 0 for p in parent for c in change):
            return "unchanged", won
        return "unresolved", won
    if -gain > bound * pm:
        return "worse", won
    return "unchanged", won


def values(data: dict, workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in data["runs"][workload]]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    parent = json.loads(args.parent.read_text(encoding="utf-8"))
    change = json.loads(args.change.read_text(encoding="utf-8"))
    if parent["seeds"] != change["seeds"] or parent["run_seconds"] != change["run_seconds"]:
        raise SystemExit("the two files were collected with different seeds or run_seconds")
    for workload in parent["runs"]:
        if workload not in change["runs"]:
            continue
        print(f"== {workload}")
        for label, data in (("parent", parent), ("change", change)):
            runs = data["runs"][workload]
            failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
            print(f"  {label} failed_share={failed / attempted:.4f} ({failed}/{attempted})")
        print(f"  {'metric':<12} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} won   verdict")
        for m in BENCHMARK["end_to_end"]:
            p, c = values(parent, workload, m["name"]), values(change, workload, m["name"])
            result, won = verdict(p, c, m["better"], m["bound"])
            cells = []
            for side in (p, c):
                q1, q2, q3 = quartiles(side)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            print(f"  {m['name']:<12} {cells[0]:<36} {cells[1]:<36} {won:4.0%}  {result}")
        traced_p, traced_c = parent["traced"].get(workload), change["traced"].get(workload)
        if traced_p and traced_c:
            for name, pv in traced_p["metrics"].items():
                a, b = pv["value"], traced_c["metrics"][name]["value"]
                if a is None or b is None:  # a traced function one side does not have
                    print(f"  layer {name}: {a} -> {b}")
                elif abs(b - a) > 0.1 * max(abs(a), abs(b)):
                    print(f"  layer {name}: {a:.4g} -> {b:.4g}")


if __name__ == "__main__":
    main()
