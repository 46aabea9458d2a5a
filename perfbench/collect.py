"""Run the benchmark several times per workload and gather the results in one file.

    python3 perfbench/collect.py --side . results.json
    python3 perfbench/collect.py --side ../parent parent.json --side . change.json --traced

Each `--side ROOT OUT` names a checkout and the file its results go to.  The
benchmark of each checkout is `ROOT/perfbench/run.py`; to measure the parent
commit with identical benchmark code, copy this `perfbench/` directory into
the parent's checkout first.  For every workload and seed the sides run one
after the other, and the side that goes first alternates from seed to seed.
Every side runs seeds 1 to 10 on every workload of `BENCHMARK.json`, for its
`run_seconds`.  Runs are sequential, one at a time.  With `--traced`, every
side also makes one traced run per workload, on the first seed, and records
the tracing overhead: the traced `trace.wall_s` minus the median untraced `wall_s`.

The output file holds the machine's `nproc` and Python version, the seeds,
`run_seconds`, every run's result object under `runs.<workload>`, and the
traced result under `traced.<workload>`.  `compare.py` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = list(range(1, 11))


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarize(label: str, runs: dict[str, list[dict]]) -> None:
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{label} {workload}: failed_share={failed / attempted:.4f} ({failed}/{attempted})")
        if len(results) < 2:
            continue
        for m in BENCHMARK["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            print(
                f"  {m['name']:<12} median={statistics.median(values):<12.6g} "
                f"spread={spread(values):.3f} bound={m['bound']}"
            )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", nargs=2, action="append", metavar=("ROOT", "OUT"), required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    sides = [(Path(root).resolve(), Path(out)) for root, out in args.side]
    data = {
        out: {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "run_seconds": BENCHMARK["run_seconds"],
            "seeds": SEEDS,
            "runs": {w: [] for w in WORKLOADS},
            "traced": {},
            "trace_overhead_s": {},
        }
        for _, out in sides
    }
    for workload in WORKLOADS:
        for k, seed in enumerate(SEEDS):
            order = sides if k % 2 == 0 else sides[::-1]
            for root, out in order:
                data[out]["runs"][workload].append(run_once(root, workload, seed, 0))
                print(f"{out} {workload} seed={seed} done", file=sys.stderr, flush=True)
        if args.traced:
            for root, out in sides:
                traced = run_once(root, workload, SEEDS[0], 1)
                data[out]["traced"][workload] = traced
                untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in data[out]["runs"][workload])
                data[out]["trace_overhead_s"][workload] = traced["metrics"]["trace.wall_s"]["value"] - untraced
        for _, out in sides:  # after every workload, so that an interrupted collection keeps its runs
            out.write_text(json.dumps(data[out], indent=1) + "\n", encoding="utf-8")
    for _, out in sides:
        summarize(str(out), data[out]["runs"])


if __name__ == "__main__":
    main()
