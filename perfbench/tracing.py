"""Per-module timing of `interstep`, measured from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every `interstep` module that binds it, under whatever name (for example
`analysis.verdict`, and `execution.compute_verdict`, which is `model.verdict`
under another name), and `uninstall()` puts the originals back.  Nothing in
the package is edited.

A wrapper counts the outermost call of its function only: a recursive call
(`holds` on a sub-guard, `eval_term` on a sub-term) is part of the outer
call's time.  Self time is a call's duration minus the time of the traced
calls made inside it.  Statistics stay in memory; `snapshot()` copies them so
that the caller can take per-round differences and write them out at the end.
A traced function that the package does not have is named on standard error
and listed in `missing`; the caller reports its metrics as null, not 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# `<module>.<function>` of every traced public function.
FUNCTIONS = (
    "analysis.enumerate_attainable",
    "analysis.brute_force_coherent",
    "analysis.equivalent",
    "analysis.weak_equivalent",
    "analysis.format_postulate_report",
    "analysis.format_equivalence_report",
    "history.append_class",
    "history.mk_history",
    "history.prefix",
    "history.initial_segments",
    "history.history_sort_key",
    "history.format_history",
    "model.verdict",
    "model.causes",
    "model.issued",
    "model.update_set",
    "model.holds",
    "model.pending",
    "model.is_coherent",
    "model.check_witness",
    "model.check_bounds",
    "structure.eval_term",
    "structure.detect_clash",
    "structure.apply_updates",
    "isomorphism.apply_isomorphism",
    "isomorphism.check_isomorphism",
    "dsl.parse_spec",
    "dsl.validate_spec",
    "execution.parse_script",
    "execution.step",
    "execution.run",
    "execution.format_trace",
    "cli.dispatch",
)

# Memoized evaluators whose argument triples are tracked for `repeat_ratio`.
MEMOIZED = ("model.verdict", "model.causes", "model.issued", "model.update_set")

# Counts of work items: histories returned, and brute-force candidates generated.
HISTORIES = "analysis.enumerate_attainable.histories"
CANDIDATES = "analysis.brute_force_coherent.candidates"
_CANDIDATE_SOURCE = "analysis.all_bounded_histories"


# Every per-layer metric that `per_round` reports, with its unit, in a fixed order.
METRICS = {
    **{f"{f}.{stat}": unit for f in FUNCTIONS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    HISTORIES: "count",
    CANDIDATES: "count",
    **{f"{f}.repeat_ratio": "ratio" for f in MEMOIZED},
}


def metrics_of(functions) -> list[str]:
    """The metric names that depend on the given traced functions."""
    source = {CANDIDATES: _CANDIDATE_SOURCE}
    return [m for m in METRICS if source.get(m, m.rpartition(".")[0]) in functions]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = {f: set() for f in MEMOIZED}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- wrappers ---------------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        seen = self._seen.get(name)
        repeats = self.repeats
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if seen is not None:
                spec, x, xi = args
                key = (id(spec), id(x), xi)
                if key in seen:
                    repeats[name] += 1
                else:
                    seen.add(key)
            active[0] = True
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[0] = False
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_generator(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[CANDIDATES] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_histories(self, result) -> None:
        self.counts[HISTORIES] += len(result.histories)

    # --- installation -------------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded `interstep` modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "interstep" or n.startswith("interstep.")]
        targets = [(name, None) for name in FUNCTIONS] + [(_CANDIDATE_SOURCE, "generator")]
        for name, kind in targets:
            module_name, _, attr = name.rpartition(".")
            original = getattr(sys.modules.get(f"interstep.{module_name}"), attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                    sys.stderr.write(f"warning: interstep.{name} not found, its metrics are not traced\n")
                continue
            if kind == "generator":
                wrapper = self._counting_generator(original)
            else:
                after = self._count_histories if name == "analysis.enumerate_attainable" else None
                wrapper = self._timed(name, original, after)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    # --- statistics ---------------------------------------------------------------

    def forget_arguments(self) -> None:
        """Drop the argument keys seen so far; call between ops, whose specs never repeat."""
        for seen in self._seen.values():
            seen.clear()

    def snapshot(self) -> dict[str, float]:
        """Cumulative values of every statistic, keyed by metric name."""
        out: dict[str, float] = {}
        for f in FUNCTIONS:
            out[f"{f}.calls"] = self.calls.get(f, 0)
            out[f"{f}.self_s"] = self.self_s.get(f, 0.0)
        out[HISTORIES] = self.counts.get(HISTORIES, 0)
        out[CANDIDATES] = self.counts.get(CANDIDATES, 0)
        for f in MEMOIZED:
            out[f"{f}.repeats"] = self.repeats.get(f, 0)
        return out


def per_round(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the work done between two snapshots."""
    delta = {k: after[k] - before[k] for k in after}
    out = {name: delta[name] for name in METRICS if name in delta}
    for f in MEMOIZED:
        calls = delta[f"{f}.calls"]
        out[f"{f}.repeat_ratio"] = delta[f"{f}.repeats"] / calls if calls else 0.0
    return out
