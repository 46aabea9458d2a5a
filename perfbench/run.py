"""End-to-end benchmark of `interstep`, run in-process through `cli.dispatch`.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One client sends one op at a time and waits for its answer (a closed loop, no
extra threads).  A run sets up, then runs a fixed number of rounds of the
workload's ops (see `workloads.py`): `--seconds` divided by the workload's
round time in `ROUND_SECONDS`, at least `REPEATS`.  The count does not depend
on how fast the code is, so every commit's best times (below) come from the
same number of samples.  Every op's exit code and `--format machine` output
are checked against `expected.json`.

The string hash seed changes how much work `interstep` does: `is_coherent`
walks a frozenset and stops at the first incoherent query, so the hash order
decides how many prefixes the brute-force scan evaluates (one round of
`check` took 2.0 s to 4.6 s across hash seeds 1 to 10).  So the rounds run in
groups of `REPEATS`, each group in a fresh worker process (started and
waited for one at a time) with its own hash seed: group g uses hash seed
g + 1 in every run.  A run thus covers as many hash orders as it has groups,
the same ones whatever `--seed`.  Within a group every round starts from a
fresh import of the package, as a new process would.

Given the hash order, the work of an op does not depend on the names and
rule order the seed picks, but its time does depend on the machine: the
same op on the same text took 0.90 s to 1.31 s of CPU time, one run after
another, while other tenants were busy.  So every op's wall and CPU time is
first scaled to a reference speed of the machine, measured by a kernel run
right before and after it (see `speed.py`); then every op is credited with
the best scaled time its kind reached in its group, and the groups are
averaged.  All times below are scaled so.  With `--trace 0` the metrics
are:

- `setup_s`: import `interstep` afresh and generate and write the first
  round's spec texts; done SETUPS times, median reported.
- `wall_s`, `cpu_s`: wall and process CPU time of one round, each op
  credited with its kind's best time in its group; mean over the groups.
- `op_p50_ms`, `op_p99_ms`: on `session`, percentiles of the wall latency
  of every single op of the run (1,152 samples at `run_seconds` 20, so
  eleven lie beyond the 99th percentile); they see slow ops such as a
  garbage collection pause.  The other workloads have too few ops per run
  for a tail: there the percentiles are taken over one sample per op kind,
  its best time in a group averaged over the groups, so `op_p99_ms` is
  about the time of the slowest kind, not a tail.  The number of samples behind the percentiles is printed on
  the line before the result.
- `peak_rss_mb`: a worker's peak resident memory over its set-up and first
  round; mean over the groups.
- `retained_mb`: a worker's resident memory after its first round minus
  that after its set-up, each taken after `gc.collect()`; mean over the
  groups.  Both memory figures cover a fixed amount of work.

With `--trace 1` the traced functions of `tracing.py` are wrapped, and the
metrics are per-round medians of each function's outermost `calls` and
`self_s`, the history and candidate counts, the `repeat_ratio` of the
memoized evaluators, and `trace.wall_s`, the traced round's wall time
computed as `wall_s` is.  The tracing overhead is `trace.wall_s` minus the
untraced `wall_s`.  A traced function that the package no longer has is
named on standard error and its metrics read null.  The spans of the run's
ops and the per-round statistics are written to
`.perfbench-out/trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
from workloads import Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
SETUPS = 7
# Rounds per worker process, that is per hash order.
REPEATS = 3
# Elapsed time of one round of each workload, with its share of worker
# start-up and speed kernels, at the commit that added the benchmark on a
# busy 2-core x86-64 machine with Python 3.11.7; it sets the fixed number of
# rounds in a run.
ROUND_SECONDS = {"enumerate": 1.3, "check": 1.3, "equiv": 3.3, "session": 1.8}
# A run starts no further group once its groups have taken this long, so that
# it ends within three minutes even on a much slower commit.
MAX_MEASURE_S = 120.0
# Workloads whose runs hold enough ops for percentiles of raw latency.
RAW_LATENCY = ("session",)
END_TO_END = ("setup_s", "wall_s", "cpu_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "retained_mb")


def _require_checkout() -> None:
    missing = [p for p in ("src/interstep/cli.py", "specs/broker.isa", "specs/scripts") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"error: not an interstep checkout, missing {', '.join(missing)}\n")
        sys.exit(2)


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fresh_import():
    """Import `interstep.cli` as a new process would, discarding loaded copies."""
    for name in [n for n in sys.modules if n == "interstep" or n.startswith("interstep.")]:
        del sys.modules[name]
    return importlib.import_module("interstep.cli")


def set_up(workload: str, seed: int, workdir: Path, group: int = 0):
    """Import the package and generate the first round; returns (seconds, cli, plan, ops)."""
    t0 = time.perf_counter()
    cli = _fresh_import()
    plan = Plan(workload, seed, workdir, group)
    ops = plan.next_round()
    return time.perf_counter() - t0, cli, plan, ops


class Checker:
    """Compares each op's exit code and machine output with `expected.json`."""

    def __init__(self) -> None:
        self.expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    def problem(self, key: str, code: int, output: str) -> str | None:
        want = self.expected.get(key)
        if want is None:
            return "no expected answer recorded"
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        lines = set(output.splitlines())
        for line in want["lines"]:
            if line not in lines:
                return f"answer line {line!r} missing"
        if hashlib.sha256(output.encode()).hexdigest() != want["sha256"]:
            return "machine output differs from the recorded digest"
        return None


def run_op(cli, op) -> tuple[float, float, int | None, str]:
    out = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.dispatch([*op.argv, "--format", "machine"], out)
    except Exception:  # an op that crashes counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        code = None
    return time.perf_counter() - t0, time.process_time() - c0, code, out.getvalue()


# --- one group: a worker process with its own hash seed -----------------------------------


def run_group(workload: str, seed: int, group: int, trace: bool, workdir: Path) -> dict:
    """Set up, run REPEATS rounds and return every op's times and the rounds' statistics."""
    checker = Checker()
    _, cli, plan, ops = set_up(workload, seed, workdir, group)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    gc.collect()
    rss_after_setup = _rss_mb()
    samples: list[tuple[str, float, float]] = []
    kernel_s: list[float] = []
    rounds: list[dict] = []
    spans: list[dict] = []
    failed = 0
    peak_rss = retained = 0.0
    start = time.perf_counter()
    for r in range(REPEATS):
        if r:
            # A fresh import, as a new process would, so the memo tables of the
            # earlier round neither speed up nor slow down this one.
            if tracer:
                tracer.uninstall()
            cli = _fresh_import()
            gc.collect()
            if tracer:
                tracer.install()
            ops = plan.next_round()
        before = tracer.snapshot() if tracer else None
        slots = speed.Slots()
        for op in ops:
            op_start = time.perf_counter() - start
            dt, dc, code, output = run_op(cli, op)
            samples += slots.add(op.key, dt, dc)
            problem = "crashed" if code is None else checker.problem(op.key, code, output)
            if problem:
                failed += 1
                sys.stderr.write(f"FAIL {op.key}: {problem}\n")
            if tracer:
                tracer.forget_arguments()
                span = {"op": op.key, "group": group, "round": r, "start_s": op_start, "wall_s": dt, "cpu_s": dc}
                spans.append(span)
        samples += slots.flush()
        kernel_s += slots.kernel_s
        rounds.append(tracing.per_round(before, tracer.snapshot()) if tracer else {})
        if r == 0:
            peak_rss = _peak_rss_mb()
            gc.collect()
            retained = _rss_mb() - rss_after_setup
    if tracer:
        tracer.uninstall()
    return {
        "round_keys": [op.key for op in ops],
        "samples": samples,
        "kernel_s": statistics.median(kernel_s),
        "failed": failed,
        "peak_rss_mb": peak_rss,
        "retained_mb": retained,
        "rounds": rounds,
        "spans": spans,
        "missing": tracer.missing if tracer else [],
    }


def spawn_group(args, group: int, workdir: Path) -> dict:
    """Run one group in a fresh worker process with hash seed `group + 1`, and wait for it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--group", str(group)]
    env = {**os.environ, "PYTHONHASHSEED": str(group + 1)}
    proc = subprocess.run(argv, env=env, cwd=workdir, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker of group {group} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- the run ------------------------------------------------------------------------------


def best_times(group: dict) -> dict[str, tuple[float, float]]:
    """The best wall and CPU time of each op kind in one group."""
    best: dict[str, tuple[float, float]] = {}
    for key, dt, dc in group["samples"]:
        w, c = best.get(key, (math.inf, math.inf))
        best[key] = (min(w, dt), min(c, dc))
    return best


def round_time(groups: list[dict]) -> tuple[float, float]:
    """Wall and CPU time of one round, each op credited with its kind's best time in its
    group, averaged over the groups."""
    walls, cpus = [], []
    for g in groups:
        best = best_times(g)
        walls.append(sum(best[k][0] for k in g["round_keys"]))
        cpus.append(sum(best[k][1] for k in g["round_keys"]))
    return statistics.fmean(walls), statistics.fmean(cpus)


def latency_samples(workload: str, groups: list[dict]) -> list[float]:
    """Per-op latencies in ms: every op's on `session`, else one per op kind, its best
    time in a group averaged over the groups."""
    if workload in RAW_LATENCY:
        return [dt * 1000 for g in groups for _, dt, _ in g["samples"]]
    best = [best_times(g) for g in groups]
    return [statistics.fmean(b[key][0] for b in best) * 1000 for key in best[0]]


def end_to_end(workload: str, setups: list[float], groups: list[dict]) -> dict[str, tuple[float, str]]:
    wall, cpu = round_time(groups)
    latencies = latency_samples(workload, groups)
    if len(latencies) == 1:
        latencies *= 2
    p = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "op_p50_ms": (p[49], "ms"),
        "op_p99_ms": (p[98], "ms"),
        "peak_rss_mb": (statistics.fmean(g["peak_rss_mb"] for g in groups), "MB"),
        "retained_mb": (statistics.fmean(g["retained_mb"] for g in groups), "MB"),
    }


def per_layer(groups: list[dict]) -> dict[str, tuple[float | None, str]]:
    rounds = [r for g in groups for r in g["rounds"]]
    missing = set(tracing.metrics_of(sorted({f for g in groups for f in g["missing"]})))
    metrics: dict[str, tuple[float | None, str]] = {
        name: (None if name in missing else statistics.median(r[name] for r in rounds), unit)
        for name, unit in tracing.METRICS.items()
    }
    metrics["trace.wall_s"] = (round_time(groups)[0], "s")
    return metrics


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """One set-up's time, scaled to the reference speed (see `speed.py`)."""
    before = speed.sample()[0]
    seconds = set_up(workload, seed, workdir)[0]
    return speed.scale(seconds, before, speed.sample()[0])


def measure(args, workdir: Path) -> dict:
    setups = [timed_setup(args.workload, args.seed, workdir) for _ in range(SETUPS)]
    planned = max(1, round(args.seconds / (REPEATS * ROUND_SECONDS[args.workload])))
    groups: list[dict] = []
    start = time.perf_counter()
    for group in range(planned):
        if time.perf_counter() - start > MAX_MEASURE_S:
            sys.stderr.write(f"warning: stopped after {group} of {planned} groups, {MAX_MEASURE_S:.0f} s\n")
            break
        groups.append(spawn_group(args, group, workdir))

    attempted = sum(len(g["samples"]) for g in groups)
    failed = sum(g["failed"] for g in groups)
    if args.trace:
        metrics = per_layer(groups)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "ops": [s for g in groups for s in g["spans"]],
                    "rounds": [r for g in groups for r in g["rounds"]],
                },
                indent=1,
            )
        )
    else:
        metrics = end_to_end(args.workload, setups, groups)
    samples = len(latency_samples(args.workload, groups))
    kind = "one per op" if args.workload in RAW_LATENCY else "one per op kind"
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} groups={len(groups)} "
        f"rounds={len(groups) * REPEATS} ops={attempted} failed={failed} latency_samples={samples} ({kind}) "
        f"beyond_p99={samples - math.ceil(0.99 * samples)} "
        f"kernel_ms={statistics.median(g['kernel_s'] for g in groups) * 1000:.2f} "
        f"(reference {speed.REFERENCE_S * 1000:g})"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "check", "equiv", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--group", type=int, help=argparse.SUPPRESS)  # set only in a worker process
    args = ap.parse_args(argv)
    _require_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    if args.group is not None:
        workdir = Path.cwd()
        print(json.dumps(run_group(args.workload, args.seed, args.group, bool(args.trace), workdir)))
        return 0
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
