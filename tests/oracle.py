"""Brute-force oracles for the analysis tests.

`interstep.analysis.all_bounded_histories` produces *all* phase-partitioned
answer functions over the query universe inside the bounds, and
`brute_force_coherent` keeps the coherent ones.  The oracles here filter them
further by the definitions: no proper final prefix, and the old step-a scan
for a final segment.  They are exponential and exist to cross-check
`enumerate_attainable` and `check_postulates`.  The generators themselves are
re-exported, so that the tests take every brute-force name from this module.
"""

from __future__ import annotations

from interstep.analysis import (
    EnumerationConfig,
    all_bounded_histories,
    brute_force_coherent,
    equivalent,
    query_universe,
    weak_equivalent,
)
from interstep.history import History, format_history, history_sort_key, initial_segments
from interstep.model import AlgorithmSpec, explicitly_final, is_coherent, pending, verdict
from interstep.structure import Structure

__all__ = [
    "agreement_property",
    "all_bounded_histories",
    "brute_force_attainable",
    "brute_force_coherent",
    "brute_force_step_a",
    "query_universe",
]


def _has_proper_final_prefix(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    return any(verdict(spec, x, eta).is_final for eta in initial_segments(xi)[:-1])


def brute_force_attainable(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> frozenset[History]:
    """Filter all bounded histories by coherence and no-proper-final-prefix."""
    return frozenset(
        xi
        for xi in all_bounded_histories(spec, x, cfg)
        if is_coherent(spec, x, xi) and not _has_proper_final_prefix(spec, x, xi)
    )


def brute_force_step_a(spec: AlgorithmSpec, cfg: EnumerationConfig, strict: bool) -> list[str]:
    """Step-a violations found by scanning every complete coherent history for a final segment."""
    step_a: list[str] = []
    for sdef in spec.states:
        x = sdef.structure
        for xi in sorted(brute_force_coherent(spec, x, cfg), key=history_sort_key):
            if pending(spec, x, xi):
                continue
            segs = initial_segments(xi)
            if strict:
                ok = any(explicitly_final(spec, x, eta) for eta in segs)
            else:
                ok = any(verdict(spec, x, eta).is_final for eta in segs)
            if not ok:
                step_a.append(f"state {sdef.name}: complete coherent {format_history(xi)} has no final prefix")
    return step_a


def agreement_property(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig) -> bool:
    """The full and weak checkers must return the same verdict."""
    return equivalent(spec_a, spec_b, cfg).equivalent == weak_equivalent(spec_a, spec_b, cfg).equivalent
