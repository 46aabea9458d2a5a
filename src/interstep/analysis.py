"""Exhaustive attainable-history enumeration, conformance reports, equivalence.

The commands explore a state's histories on one walk (`_walk`): breadth first
over the union of the attainable trees of one or more evaluators, in one list
that is both frontier and result, each node marked, per evaluator, with the
issued set of its parent there (None outside that evaluator's tree), a tuple
that siblings share.  An evaluator's pending queries count at a node that is
in its tree and not final there; every nonempty sub-map of the union of those
sets into the reply pool yields a child by appending one phase class.  The
child that answers a set S is in an evaluator's tree exactly when its parent
is, the parent is not final there, and S lies within that evaluator's pending
queries; a child in no tree is not built.  Each child has one parent, so none
repeats and each node is built once, for every evaluator.  Truncation is per
evaluator: its tree is cut when it has pending queries at the phase bound, or
more of them than the room the domain bound leaves; a wider union cuts
nothing.  `enumerate` and `check` walk one evaluator, `equiv` two.

A node stands for a class of histories that no rule can tell apart: an
algorithm sees replies only through finitely many terms (`Evaluator.observed`).
A reply that the rules only compare with closed terms falls into one class per
compared value in the pool or the class of the rest; a reply that flows into a
term is its own class, as is every reply if a named template reads replies.
Two evaluators use the common refinement.  A node's children combine its
pending sub-map's classes, answered with their least values, so a node's
representative is its first member in the concrete walk's order and its least
by `history_sort_key`: a witness or a rule error names the same history.  All
members have the representative's issued sets, finality, verdicts and update
sets, so the commands judge a node once, at its representative, and `equiv`
counts its members by its weight, the product of its rows' class sizes.
Members are output, not work: `_lines` writes their texts from the node's
rows without building them, for the listing of `enumerate` and for each line
of a node that breaks a postulate.  Only `EnumerationResult.histories`, which
the tests read, and the witness section, whose `$x` terms range over each
member's own replies, build members.

The walk shows each node to its caller with, per evaluator, the parent's
issued set and the node's own where it is open, so no command rebuilds a
prefix and no evaluator keeps a history.  Attainability reads only whether a
history is final, so the walk decides finality and nothing more: it builds
no update set and decides no success or fail.  Once the walk is done,
`check_postulates` and `equiv` build a final node's issued set from its
parent's and classify it, so an update rule that fails when it fires is an
error there; a rule error met on the walk comes first.  Only the
counterpart states of the isomorphism and witness sections are asked about
one history at a time.  The brute-force generator below
(`all_bounded_histories`, `brute_force_coherent`) produces *all*
phase-partitioned answer functions inside the bounds instead; no command
calls it.  The tests use it as an oracle, and it stays in the package
because `perfbench/tracing.py` traces it by name.

Part a of the step postulate asks every complete coherent history to have a
final initial segment.  The attainable set decides it: a coherent history
cannot extend a complete proper prefix, because the first class after that
prefix would answer queries the prefix does not leave pending.  So a complete
coherent history with no final prefix is attainable, and since its proper
prefixes are non-final it can only be final itself.  In lax mode completion
finality makes it final, so step-a always holds; strict mode asks for a
final rule that fires on it.

Equivalence asks two machine descriptions A and B to agree on vocabulary,
states, initial states and labels (clause 1) and attainable sets (2), and on
the histories attainable in both, on issued sets (3), final classifications
(4) and the update sets of successful finals (5).  Each shared state is
decided on the walk of A's and B's evaluators there, on-the-fly checking on
the product of the two systems (Fernandez and Mounier, CAV 1991).  After the
walk, clause 2 counts the nodes in exactly one description, and clauses 3-5
read only those in both, each naming its least bad node by sort key.  The
weak variant walks the same nodes, so its truncation flag covers them all,
and leaves clause 2 out; the two verdicts provably coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, product
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    NOT_FINAL,
    AlgorithmSpec,
    Verdict,
    bound_violations,
    causes,
    check_witness,
    history_valid_for,
    is_coherent,
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
    """The attainable histories found, as the walk's class nodes (representative, rows); `truncated` is the one report
    that a bound cut the space."""

    nodes: tuple[tuple[History, tuple[tuple[str, ...], ...]], ...]
    truncated: bool

    @cached_property
    def histories(self) -> frozenset[History]:
        """Every member of every node, built on first use: the listing (`texts`) builds none."""
        return frozenset(chain.from_iterable(_members(xi, rows) for xi, rows in self.nodes))

    def texts(self) -> list[str]:
        """Each attainable history's text, in `history_sort_key` order."""
        return _lines((xi, rows, "", "") for xi, rows in self.nodes)


def enumerate_attainable(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> EnumerationResult:
    """All attainable histories within the bounds: the walk of one evaluator's tree, one class node at a time."""
    nodes: list[tuple[History, tuple]] = []
    truncated = _walk((spec,), x, cfg, lambda xi, befores, opens, rows: nodes.append((xi, rows)))
    return EnumerationResult(tuple(nodes), truncated)


def _members(xi: History, rows: tuple[tuple[str, ...], ...]) -> list[History]:
    """The concrete histories of a class node, each row's reply ranging over its class; the rows stay canonical, and
    the members share their row tuples (built anew per member, they held 0.35 MB more after an enumerate round)."""
    choices = [[row, *[(row[0], r, row[2]) for r in cls[1:]]] for row, cls in zip(xi.entries, rows)]
    return [History(entries) for entries in product(*choices)]


def _lines(nodes: Iterable[tuple[History, tuple[tuple[str, ...], ...], str, str]]) -> list[str]:
    """The line `head + text + tail` of each member of each class node given as (representative, rows, head, tail),
    text being the member as `format_history` writes it, sorted by `history_sort_key`, a member's lines as given.  No
    `History` is built: a member differs from its representative only in replies, so its key is (length, rows, text)."""
    keyed = []
    for xi, rows, head, tail in nodes:
        choices = [[f"{format_query(q)} -> {r} @{p}" for r in cls] for (q, _, p), cls in zip(xi.entries, rows)]
        for combo in product(*choices):
            keyed.append(((xi.length, len(rows), "{ " + " ; ".join(combo) + " }" if combo else "{ }"), head, tail))
    keyed.sort(key=lambda line: line[0])
    return [head + key[2] + tail for key, head, tail in keyed]


def _reply_classes(specs: tuple[AlgorithmSpec, ...], x: Structure, pool: Sequence[str]) -> Callable[[Query], list[tuple[str, ...]]]:
    """By query, the classes of the sorted pool that no spec's rules tell apart at x, ordered by least value: each
    compared value alone and the rest together; a reply that flows, or any if a named template reads one, is alone."""
    views, every, seen = [spec.evaluator(x).observed(spec._reply_uses) for spec in specs], frozenset(pool), {}
    for q, values in chain.from_iterable(view for view in views if view is not None):
        seen[q] = seen.get(q, frozenset()) | (every if values is None else values)

    @cache
    def classes(q: Query) -> list[tuple[str, ...]]:
        values = every if None in views else seen.get(q, frozenset())
        rest = tuple([v for v in pool if v not in values])
        return sorted([(v,) for v in pool if v in values] + [rest] * bool(rest))

    return classes


def _walk(specs: tuple[AlgorithmSpec, ...], x: Structure, cfg: EnumerationConfig, visit: Callable) -> bool:
    """The union of the specs' attainable trees at x, breadth first, a node per class (see the module notes); whether a
    bound cut some tree.  `visit(xi, befores, opens, rows)` sees each node's representative before its children: by
    evaluator, its parent's issued set (None off that tree) and its own where open (else None), and its rows' classes."""
    # the loop walks the lists it appends to: no child repeats; the root's parent issues nothing
    evaluators, pool = tuple([spec.evaluator(x) for spec in specs]), cfg.pool_for(x)
    found, marks = [EMPTY_HISTORY], [((frozenset(),) * len(evaluators), ())]
    classes, truncated = _reply_classes(specs, x, pool), False
    for xi, (befores, rows) in zip(found, marks):
        # by evaluator, the node's issued set where it is open, else None (a loop: a comprehension is a call)
        opens = []
        for ev, before in zip(evaluators, befores):
            opens.append(None if before is None else ev.open_issued(xi, before))
        visit(xi, befores, opens, rows)
        pends = [o.difference(xi.answers) for o in opens if o is not None]
        if not pends:
            continue
        # truncation is per evaluator, and there is no room at the phase bound: a wider union cuts no tree
        room = cfg.max_domain - len(xi.entries) if xi.length < cfg.max_phases else 0
        truncated = truncated or max(map(len, pends)) > room
        pend = sorted(frozenset().union(*pends), key=query_sort_key)
        for size in range(1, min(len(pend), room) + 1):
            for subset in combinations(pend, size):
                # the subset is unanswered, so it is pending where it is issued
                child = tuple([o if o is not None and o.issuperset(subset) else None for o in opens])
                if any(child):  # the issued set of an open node is not empty
                    for combo in product(*map(classes, subset)):
                        found.append(append_class(xi, {q: c[0] for q, c in zip(subset, combo)}))
                        marks.append((child, rows + combo))
    return truncated


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
    """Aggregate conformance report over the enumerated history space, judged once per class node.

    A state's final nodes are all classified before the bounds section builds an issued set, so a rule error names
    the least history where a rule fails.  A node that breaks a postulate breaks it at every member, and each member
    gets its line (`_lines`); only the witness section judges members (see its comment)."""
    step_a: list[str] = []
    bounds: list[str] = []
    iso_section: list[str] = []
    witness_section: list[str] = []
    truncated = False

    # each state's walk in report order: its class nodes, each with its parent's issued set
    # and its own where it is open
    walked: dict[str, list[tuple[History, tuple, frozenset[Query], frozenset[Query] | None]]] = {}
    for sdef in spec.states:
        x, nodes = sdef.structure, []
        cut = _walk((spec,), x, cfg, lambda xi, b, o, rows: nodes.append((xi, rows, b[0], o[0])))
        truncated = truncated or cut
        walked[sdef.name] = sorted(nodes, key=lambda node: history_sort_key(node[0]))

    # each state's class nodes in report order, with their verdicts; a violating node is
    # (node, rows, head, tail), and `_lines` writes each member's line
    judged: dict[str, list[tuple[History, tuple, Verdict]]] = {}
    for sdef in spec.states:
        ev, judged[sdef.name], incomplete, over = spec.evaluator(sdef.structure), [], [], []
        for xi, rows, before, opened in walked[sdef.name]:
            # the walk decides finality only: classifying every final node builds its
            # update set, so a rule error at a final history surfaces here
            judged[sdef.name].append((xi, rows, NOT_FINAL if opened is not None else ev.classify(xi)))
            # step-a: in lax mode completion finality makes every complete history final
            if strict and opened is None and not ev.issued(xi, before).difference(xi.answers) and not ev.explicitly_final(xi):
                incomplete.append((xi, rows, f"state {sdef.name}: complete coherent ", " has no final prefix"))
        for xi, rows, before, opened in walked[sdef.name]:
            for issue in bound_violations(spec.bounds, [(xi, opened if opened is not None else ev.issued(xi, before))]):
                over.append((xi, rows, f"state {sdef.name}: [{issue.code}] ", f": {issue.detail}"))
        step_a += _lines(incomplete)
        bounds += _lines(over)

    for mapping, name_a, name_b in isos:
        xa, xb = spec.state(name_a), spec.state(name_b)
        full = {e: dict(mapping).get(e, e) for e in xa.base}
        if not check_isomorphism(full, xa, xb):
            iso_section.append(f"{name_a} -> {name_b}: mapping is not an isomorphism")
            continue
        if (name_a in spec.initial) != (name_b in spec.initial):
            iso_section.append(f"{name_a} -> {name_b}: initiality is not preserved")
        # σ maps xa's classes onto xb's: the image of a representative is judged by xb's node it represents, or by point query
        iso, judged_b, bad = Isomorphism.of(full), {xi: v for xi, _, v in judged[name_b]}, []
        for xi, rows, va in judged[name_a]:
            moved, where = apply_isomorphism(iso, xi), f"{name_a} -> {name_b}: "
            if apply_isomorphism(iso, causes(spec, xa, xi)) != causes(spec, xb, moved):
                bad.append((xi, rows, where + "causes not preserved at ", ""))
            vb = judged_b.get(moved) or verdict(spec, xb, moved)
            if va.kind != vb.kind:
                bad.append((xi, rows, where + f"verdict {va.kind} became {vb.kind} at ", ""))
            # only a successful final has an update set, and its verdict carries it
            elif va.is_success and apply_isomorphism(iso, va.updates) != vb.updates:
                bad.append((xi, rows, where + "updates not preserved at ", ""))
        iso_section += _lines(bad)

    # distinct states only: a state always agrees with itself.  The witness terms may hold $x variables, which
    # range over each member's own replies (`_witness_agrees`), so here the members of one node can differ
    for name_a, name_b in combinations([s.name for s in spec.states], 2):
        xa, xb = spec.state(name_a), spec.state(name_b)
        members = [(m, va) for xi, rows, va in judged[name_a] for m in _members(xi, rows)]
        for xi, va in sorted(members, key=lambda member: history_sort_key(member[0])):
            if not history_valid_for(xb, xi):
                continue
            for issue in check_witness(spec, xa, xb, xi, va):
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


def _weight(nodes: list[tuple]) -> int:
    """The number of histories that class nodes stand for, each given as (representative, weight, ...)."""
    return sum(node[1] for node in nodes)


def _least(nodes: list[tuple]) -> tuple:
    """The class node whose representative sorts first: no history it stands for sorts before it."""
    return min(nodes, key=lambda node: history_sort_key(node[0]))


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
        ev_a, ev_b = spec_a.evaluator(x), spec_b.evaluator(x)
        nodes: list[tuple[History, tuple, list, int]] = []
        cut = _walk((spec_a, spec_b), x, cfg, lambda xi, befores, opens, rows: nodes.append((xi, befores, opens, prod(map(len, rows)))))
        truncated = truncated or cut
        # after the walk, as a rule error is met there first: the nodes in exactly one spec, then the bad
        # nodes of clauses 3-5 and the successful finals, each with its weight, which every count sums
        only, bad3, bad4, bad5, succ = [], [], [], [], 0
        for xi, (before_a, before_b), (open_a, open_b), weight in nodes:
            if before_a is None or before_b is None:
                only.append((xi, weight))
                continue
            issued_a = open_a if open_a is not None else ev_a.issued(xi, before_a)
            issued_b = open_b if open_b is not None else ev_b.issued(xi, before_b)
            if issued_a != issued_b:
                bad3.append((xi, weight, issued_a ^ issued_b))
            va = NOT_FINAL if open_a is not None else ev_a.classify(xi)
            vb = NOT_FINAL if open_b is not None else ev_b.classify(xi)
            if va.kind != vb.kind:
                bad4.append((xi, weight, va.kind, vb.kind))
            if va.is_success and vb.is_success:
                succ += weight
                if va.updates != vb.updates:
                    bad5.append((xi, weight))
        every, n_only = sum(node[3] for node in nodes), _weight(only)
        if not weak:
            detail = f"{n_only} histories attainable in exactly one" if only else f"{every} attainable histories agree"
            clauses.append(ClauseOutcome(2, sdef.name, not only, detail))
            if only:
                divergences.append(Divergence(sdef.name, _least(only)[0], 2, "attainable in exactly one description"))
        clauses.append(
            ClauseOutcome(3, sdef.name, not bad3, f"issued sets agree on {every - n_only} histories" if not bad3 else f"issued sets differ on {_weight(bad3)} histories")
        )
        if bad3:
            w, _, differ = _least(bad3)
            diff = " ".join(format_query(q) for q in sorted(differ, key=query_sort_key))
            divergences.append(Divergence(sdef.name, w, 3, f"issued sets differ by {diff}"))
        clauses.append(
            ClauseOutcome(4, sdef.name, not bad4, "final classifications agree" if not bad4 else f"final classifications differ on {_weight(bad4)} histories")
        )
        if bad4:
            w, _, kind_a, kind_b = _least(bad4)
            divergences.append(Divergence(sdef.name, w, 4, f"{kind_a} vs {kind_b}"))
        clauses.append(
            ClauseOutcome(5, sdef.name, not bad5, f"update sets agree on {succ} successful finals" if not bad5 else f"update sets differ on {_weight(bad5)} histories")
        )
        if bad5:
            divergences.append(Divergence(sdef.name, _least(bad5)[0], 5, "update sets differ"))

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
