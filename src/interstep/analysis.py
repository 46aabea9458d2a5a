"""Exhaustive attainable-history enumeration, conformance reports, equivalence.

Enumeration is a tree held in one list, both frontier and result: from each
non-final attainable history, every nonempty sub-map of the pending queries
into the reply pool yields a child by appending one simultaneity class.
Children are attainable by construction, and each has one parent, so none
repeats.  Enumeration is the only way the commands explore a state's
histories.  The brute-force generator below (`all_bounded_histories`,
`brute_force_coherent`) produces *all* phase-partitioned answer functions
inside the bounds instead; no command calls it.  The tests use it as an
oracle, and it stays in the package because `perfbench/tracing.py` traces it
by name.

Part a of the step postulate asks every complete coherent history to have a
final initial segment.  The attainable set decides it: a coherent history
cannot extend a complete proper prefix, because the first class after that
prefix would answer queries the prefix does not leave pending.  So a complete
coherent history with no final prefix is attainable, and since its proper
prefixes are non-final it can only be final itself.  In lax mode completion
finality makes it final, so step-a always holds; strict mode asks for a
final rule that fires on it.

Equivalence of two machine descriptions is decided clause by clause: same
vocabulary/states/initial/labels, same attainable sets, same issued sets,
same final classifications, same update sets on successful finals.  The weak
variant only compares behavior on histories attainable for both; the two
verdicts provably coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from .errors import EngineError
from .history import (
    EMPTY_HISTORY,
    Elem,
    History,
    Label,
    Query,
    append_class,
    format_history,
    format_query,
    history_sort_key,
    mk_history,
    query_sort_key,
)
from .isomorphism import Isomorphism, apply_isomorphism, check_isomorphism
from .model import (
    AlgorithmSpec,
    causes,
    check_bounds,
    check_witness,
    explicitly_final,
    history_valid_for,
    is_coherent,
    issued,
    pending,
    update_set,
    verdict,
)
from .structure import Structure, eval_term, term_variables


class AnalysisError(EngineError):
    """Bad enumeration configuration or analysis input."""


@dataclass(frozen=True)
class EnumerationConfig:
    """Reply pool and size bounds for history enumeration."""

    reply_pool: tuple[str, ...] | None = None
    max_phases: int = 4
    max_domain: int = 8

    def __post_init__(self) -> None:
        if self.max_phases < 1 or self.max_domain < 1:
            raise AnalysisError("enumeration bounds must be positive")

    def pool_for(self, x: Structure) -> tuple[str, ...]:
        if self.reply_pool is None:
            return x.base
        extra = set(self.reply_pool) - x.elements
        if extra:
            raise AnalysisError(f"reply pool elements {sorted(extra)!r} are not in the base set")
        return tuple(sorted(set(self.reply_pool)))


@dataclass(frozen=True)
class EnumerationResult:
    """The attainable histories found; `truncated` is the one report that a bound cut the space."""

    histories: frozenset[History]
    truncated: bool


def enumerate_attainable(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> EnumerationResult:
    """All attainable histories within the bounds, by breadth-first expansion."""
    pool = cfg.pool_for(x)
    # the loop walks the list it appends to: no child repeats (see the module notes)
    found = [EMPTY_HISTORY]
    truncated = False
    for xi in found:
        if verdict(spec, x, xi).is_final:
            continue
        pend = sorted(pending(spec, x, xi), key=query_sort_key)
        if not pend:
            continue
        if xi.length >= cfg.max_phases:
            truncated = True
            continue
        room = cfg.max_domain - len(xi.entries)
        for size in range(1, len(pend) + 1):
            if size > room:
                truncated = True
                break
            for subset in combinations(pend, size):
                for values in product(pool, repeat=size):
                    found.append(append_class(xi, dict(zip(subset, values))))
    return EnumerationResult(frozenset(found), truncated)


# --- Brute-force generation (the tests' oracle; no command calls it) ---------------


def query_universe(spec: AlgorithmSpec, x: Structure, pool: Sequence[str]) -> frozenset[Query]:
    """Every query the issue rules can emit when replies range over the pool."""
    out: set[Query] = set()
    for rule in spec.issue_rules:
        names: list[str] = []
        for part in rule.template.parts:
            if not isinstance(part, Label):
                names.extend(v.name for v in term_variables(part))
        names = sorted(set(names))
        for combo in product(pool, repeat=len(names)):
            valuation = dict(zip(names, combo))
            parts = []
            for part in rule.template.parts:
                if isinstance(part, Label):
                    parts.append(part)
                else:
                    parts.append(Elem(eval_term(x, part, valuation)))
            out.add(Query(tuple(parts)))
    return frozenset(out)


def _ordered_partitions(items: tuple, max_classes: int) -> Iterator[tuple[tuple, ...]]:
    """All ways to split items into an ordered sequence of nonempty classes."""
    if not items:
        yield ()
        return
    if max_classes < 1:
        return
    rest = items[1:]
    first = items[0]
    for split in _ordered_partitions(rest, max_classes):
        # put `first` into an existing class
        for i in range(len(split)):
            yield split[:i] + ((first, *split[i]),) + split[i + 1 :]
        # or open a new class at any position
        if len(split) < max_classes:
            for i in range(len(split) + 1):
                yield split[:i] + ((first,),) + split[i:]


def all_bounded_histories(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> Iterator[History]:
    """All phase-partitioned answer functions over the query universe, within bounds."""
    pool = cfg.pool_for(x)
    universe = sorted(query_universe(spec, x, pool), key=query_sort_key)
    max_k = min(cfg.max_domain, len(universe))
    for k in range(0, max_k + 1):
        for domain in combinations(universe, k):
            for split in _ordered_partitions(domain, cfg.max_phases):
                phases = {q: i for i, cls in enumerate(split) for q in cls}
                for values in product(pool, repeat=k):
                    answers = dict(zip(domain, values))
                    yield mk_history(answers, phases)


def brute_force_coherent(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> frozenset[History]:
    return frozenset(xi for xi in all_bounded_histories(spec, x, cfg) if is_coherent(spec, x, xi))


# --- Postulate conformance ---------------------------------------------------------


@dataclass(frozen=True)
class SectionResult:
    name: str
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PostulateReport:
    sections: tuple[SectionResult, ...]
    truncated: bool

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def section(self, name: str) -> SectionResult:
        for s in self.sections:
            if s.name == name:
                return s
        raise AnalysisError(f"no report section {name!r}")


IsoSpec = tuple[Mapping[str, str], str, str]


def check_postulates(
    spec: AlgorithmSpec,
    cfg: EnumerationConfig,
    isos: Sequence[IsoSpec] = (),
    *,
    strict: bool = False,
) -> PostulateReport:
    """Aggregate conformance report over the enumerated history space."""
    step_a: list[str] = []
    bounds: list[str] = []
    iso_section: list[str] = []
    witness_section: list[str] = []
    truncated = False

    attainable_by_state: dict[str, EnumerationResult] = {}
    for sdef in spec.states:
        res = enumerate_attainable(spec, sdef.structure, cfg)
        attainable_by_state[sdef.name] = res
        truncated = truncated or res.truncated

    # each state's attainable histories in report order, sorted once for every section
    ordered = {name: sorted(res.histories, key=history_sort_key) for name, res in attainable_by_state.items()}

    for sdef in spec.states:
        x = sdef.structure
        for xi in ordered[sdef.name]:
            # step-a: in lax mode completion finality makes every complete history final
            if strict and not pending(spec, x, xi) and not explicitly_final(spec, x, xi):
                step_a.append(f"state {sdef.name}: complete coherent {format_history(xi)} has no final prefix")
        for issue in check_bounds(spec, x, ordered[sdef.name]):
            bounds.append(f"state {sdef.name}: [{issue.code}] {format_history(issue.history)}: {issue.detail}")

    for mapping, name_a, name_b in isos:
        xa, xb = spec.state(name_a), spec.state(name_b)
        full = {e: dict(mapping).get(e, e) for e in xa.base}
        if not check_isomorphism(full, xa, xb):
            iso_section.append(f"{name_a} -> {name_b}: mapping is not an isomorphism")
            continue
        if (name_a in spec.initial) != (name_b in spec.initial):
            iso_section.append(f"{name_a} -> {name_b}: initiality is not preserved")
        iso = Isomorphism.of(full)
        for xi in ordered[name_a]:
            moved = apply_isomorphism(iso, xi)
            if apply_isomorphism(iso, causes(spec, xa, xi)) != causes(spec, xb, moved):
                iso_section.append(f"{name_a} -> {name_b}: causes not preserved at {format_history(xi)}")
            va, vb = verdict(spec, xa, xi), verdict(spec, xb, moved)
            if va.kind != vb.kind:
                iso_section.append(
                    f"{name_a} -> {name_b}: verdict {va.kind} became {vb.kind} at {format_history(xi)}"
                )
            if apply_isomorphism(iso, update_set(spec, xa, xi)) != update_set(spec, xb, moved):
                iso_section.append(f"{name_a} -> {name_b}: updates not preserved at {format_history(xi)}")

    # distinct states only: a state always agrees with itself
    for name_a, name_b in combinations([s.name for s in spec.states], 2):
        xa, xb = spec.state(name_a), spec.state(name_b)
        for xi in ordered[name_a]:
            if not history_valid_for(xb, xi):
                continue
            for issue in check_witness(spec, xa, xb, xi):
                witness_section.append(f"{name_a} vs {name_b} at {format_history(xi)}: [{issue.code}] {issue.detail}")

    return PostulateReport(
        sections=(
            SectionResult("step-a", tuple(step_a)),
            SectionResult("exclusivity", ()),  # a Verdict has one kind: success and fail exclude each other
            SectionResult("bounds", tuple(bounds)),
            SectionResult("isomorphism", tuple(iso_section)),
            SectionResult("witness", tuple(witness_section)),
        ),
        truncated=truncated,
    )


def format_postulate_report(report: PostulateReport, fmt: str = "human") -> str:
    lines: list[str] = []
    if fmt == "machine":
        for s in report.sections:
            lines.append(f"{s.name}={'pass' if s.passed else 'fail'}")
            for v in s.violations:
                lines.append(f"{s.name}.violation={v}")
        lines.append(f"truncated={'true' if report.truncated else 'false'}")
        lines.append(f"result={'conforming' if report.passed else 'nonconforming'}")
    else:
        for s in report.sections:
            lines.append(f"{s.name}: {'pass' if s.passed else 'fail'}")
            for v in s.violations:
                lines.append(f"  {v}")
        if report.truncated:
            lines.append("note: enumeration was truncated by the configured bounds")
        lines.append("result: " + ("conforming" if report.passed else "nonconforming"))
    return "\n".join(lines) + "\n"


# --- Behavioral equivalence ----------------------------------------------------------


@dataclass(frozen=True)
class ClauseOutcome:
    clause: int
    state: str | None
    passed: bool
    detail: str


@dataclass(frozen=True)
class Divergence:
    state: str | None
    history: History | None
    clause: int
    detail: str


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    mode: str  # "full" | "weak"
    truncated: bool
    clauses: tuple[ClauseOutcome, ...]
    divergence: Divergence | None


def _divergence_key(d: Divergence) -> tuple:
    return (d.state or "", history_sort_key(d.history) if d.history is not None else (), d.clause)


def _compare(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig, weak: bool) -> EquivalenceReport:
    clauses: list[ClauseOutcome] = []
    divergences: list[Divergence] = []

    problems: list[str] = []
    if spec_a.vocab != spec_b.vocab:
        problems.append("vocabularies differ")
    if spec_a.labels != spec_b.labels:
        problems.append("labels differ")
    structs_a = frozenset(s.structure for s in spec_a.states)
    structs_b = frozenset(s.structure for s in spec_b.states)
    if structs_a != structs_b:
        problems.append("state sets differ")
    init_a = frozenset(spec_a.state(n) for n in spec_a.initial)
    init_b = frozenset(spec_b.state(n) for n in spec_b.initial)
    if init_a != init_b:
        problems.append("initial state sets differ")
    clause1 = not problems
    clauses.append(ClauseOutcome(1, None, clause1, "; ".join(problems) if problems else "states, initial states, and labels agree"))
    if not clause1:
        divergences.append(Divergence(None, None, 1, "; ".join(problems)))

    truncated = False
    for sdef in sorted(spec_a.states, key=lambda s: s.name):
        x = sdef.structure
        if x not in structs_b:
            continue
        res_a = enumerate_attainable(spec_a, x, cfg)
        res_b = enumerate_attainable(spec_b, x, cfg)
        truncated = truncated or res_a.truncated or res_b.truncated
        if not weak:
            same = res_a.histories == res_b.histories
            detail = (
                f"{len(res_a.histories)} attainable histories agree"
                if same
                else f"{len(res_a.histories ^ res_b.histories)} histories attainable in exactly one"
            )
            clauses.append(ClauseOutcome(2, sdef.name, same, detail))
            if not same:
                w = min(res_a.histories ^ res_b.histories, key=history_sort_key)
                divergences.append(Divergence(sdef.name, w, 2, "attainable in exactly one description"))
        common = sorted(res_a.histories & res_b.histories, key=history_sort_key)
        bad3 = [xi for xi in common if issued(spec_a, x, xi) != issued(spec_b, x, xi)]
        clauses.append(
            ClauseOutcome(3, sdef.name, not bad3, f"issued sets agree on {len(common)} histories" if not bad3 else f"issued sets differ on {len(bad3)} histories")
        )
        if bad3:
            w = bad3[0]
            sa = issued(spec_a, x, w)
            sb = issued(spec_b, x, w)
            diff = " ".join(format_query(q) for q in sorted(sa ^ sb, key=query_sort_key))
            divergences.append(Divergence(sdef.name, w, 3, f"issued sets differ by {diff}"))
        bad4 = [xi for xi in common if verdict(spec_a, x, xi).kind != verdict(spec_b, x, xi).kind]
        clauses.append(
            ClauseOutcome(4, sdef.name, not bad4, "final classifications agree" if not bad4 else f"final classifications differ on {len(bad4)} histories")
        )
        if bad4:
            w = bad4[0]
            divergences.append(
                Divergence(sdef.name, w, 4, f"{verdict(spec_a, x, w).kind} vs {verdict(spec_b, x, w).kind}")
            )
        succ = [xi for xi in common if verdict(spec_a, x, xi).is_success and verdict(spec_b, x, xi).is_success]
        bad5 = [xi for xi in succ if update_set(spec_a, x, xi) != update_set(spec_b, x, xi)]
        clauses.append(
            ClauseOutcome(5, sdef.name, not bad5, f"update sets agree on {len(succ)} successful finals" if not bad5 else f"update sets differ on {len(bad5)} histories")
        )
        if bad5:
            divergences.append(Divergence(sdef.name, bad5[0], 5, "update sets differ"))

    ok = all(c.passed for c in clauses)
    div = min(divergences, key=_divergence_key) if divergences else None
    return EquivalenceReport(ok, "weak" if weak else "full", truncated, tuple(clauses), div)


def equivalent(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig) -> EquivalenceReport:
    """Decide behavioral equivalence clause by clause."""
    return _compare(spec_a, spec_b, cfg, weak=False)


def weak_equivalent(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig) -> EquivalenceReport:
    """Decide equivalence comparing behavior only on commonly attainable histories."""
    return _compare(spec_a, spec_b, cfg, weak=True)


def format_equivalence_report(report: EquivalenceReport, fmt: str = "human") -> str:
    lines: list[str] = []
    if fmt == "machine":
        lines.append(f"equivalent={'true' if report.equivalent else 'false'}")
        lines.append(f"mode={report.mode}")
        lines.append(f"truncated={'true' if report.truncated else 'false'}")
        for c in report.clauses:
            key = f"clause.{c.clause}" + (f".{c.state}" if c.state else "")
            lines.append(f"{key}={'pass' if c.passed else 'fail'}")
        if report.divergence is not None:
            d = report.divergence
            lines.append(f"divergence.state={d.state or ''}")
            lines.append(f"divergence.clause={d.clause}")
            lines.append("divergence.history=" + (format_history(d.history) if d.history is not None else ""))
            lines.append(f"divergence.detail={d.detail}")
    else:
        if report.equivalent:
            lines.append("equivalent up to bounds" if report.truncated else "equivalent")
        else:
            lines.append("not equivalent")
        for c in report.clauses:
            where = f" [{c.state}]" if c.state else ""
            lines.append(f"  clause {c.clause}{where}: {'pass' if c.passed else 'fail'} ({c.detail})")
        if report.divergence is not None:
            d = report.divergence
            where = f" in state {d.state}" if d.state else ""
            at = f" at {format_history(d.history)}" if d.history is not None else ""
            lines.append(f"  first divergence{where}{at}: clause {d.clause}, {d.detail}")
    return "\n".join(lines) + "\n"
