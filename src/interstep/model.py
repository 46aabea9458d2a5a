"""Rule-driven interaction machines: causality, finality verdicts, and updates.

A machine is described by finitely many guarded rules over named query
templates.  Issue rules cause queries, final rules end a step with a success
or fail verdict, and update rules assemble the update set executed at a
successful final history.  Guards are boolean combinations of atoms that read
a history: whether a template instance is answered, what it was answered
with, and the relative order of replies.

The `start` atom is satisfied exactly by the empty history, so rules guarded
by it contribute their queries at the very beginning of a step and, through
the issued-set semantics (union over all initial segments), those queries
stay issued for the rest of the step.

Every complete history counts as final even without a matching final rule
(completion finality); conformance checking offers a strict mode that flags
histories whose finality is only implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .errors import EngineError
from .history import (
    EMPTY_HISTORY,
    Elem,
    History,
    Label,
    Query,
    format_query,
    initial_segments,
    query_sort_key,
    restrict_before,
)
from .spans import Span
from .structure import (
    App,
    Location,
    ReplyVar,
    Structure,
    Term,
    Update,
    Var,
    Vocabulary,
    detect_clash,
    eval_term,
    format_location,
    term_variables,
)


class ModelError(EngineError):
    """Malformed machine description or misused machine operation."""


class InstantiationError(ModelError):
    """A rule fired but mentions a reply that the history does not provide."""


class NotSuccessful(ModelError):
    """next_state requires a successful verdict."""


class IncompatibleHistory(ModelError):
    """A history mentions elements outside a state's base set."""


# --- Guards -------------------------------------------------------------------


@dataclass(frozen=True)
class Start:
    """Satisfied exactly by the empty history."""

    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Answered:
    qname: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unanswered:
    qname: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ReplyEq:
    qname: str
    term: Term
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Before:
    first: str
    second: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Simultaneous:
    first: str
    second: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TermEq:
    left: Term
    right: Term
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    inner: "Guard"
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    left: "Guard"
    right: "Guard"
    span: Span | None = field(default=None, compare=False, repr=False)


Guard = Start | Answered | Unanswered | ReplyEq | Before | Simultaneous | TermEq | Not | And | Or


# --- Templates and rules --------------------------------------------------------


@dataclass(frozen=True)
class QueryTemplate:
    """A named query shape; term components may read replies of other templates."""

    name: str | None
    parts: tuple[Label | Term, ...]
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IssueRule:
    name: str
    guard: Guard
    template: QueryTemplate
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FinalRule:
    name: str
    guard: Guard
    outcome: str  # "succeed" | "fail"
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class UpdateRule:
    name: str
    guard: Guard
    symbol: str
    args: tuple[Term, ...]
    value: Term
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Bounds:
    max_query_len: int
    max_issued: int
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class WitnessDecl:
    term: Term
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StateDef:
    name: str
    structure: Structure
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A complete machine description; doubles as the parsed AST (nodes carry spans)."""

    name: str
    vocab: Vocabulary
    labels: frozenset[str]
    states: tuple[StateDef, ...]
    initial: frozenset[str]
    templates: tuple[QueryTemplate, ...]
    issue_rules: tuple[IssueRule, ...]
    final_rules: tuple[FinalRule, ...]
    update_rules: tuple[UpdateRule, ...]
    bounds: Bounds
    witness: tuple[WitnessDecl, ...]
    span: Span | None = field(default=None, compare=False, repr=False)

    def state(self, name: str) -> Structure:
        for s in self.states:
            if s.name == name:
                return s.structure
        raise ModelError(f"no state named {name!r}")

    def has_state(self, x: Structure) -> bool:
        return any(s.structure == x for s in self.states)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    def template(self, qname: str) -> QueryTemplate:
        for t in self.templates:
            if t.name == qname:
                return t
        raise ModelError(f"no query template named {qname!r}")

    @property
    def witness_terms(self) -> tuple[Term, ...]:
        return tuple(w.term for w in self.witness)


# --- Verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """NotFinal, or a final success/fail classification (mutually exclusive)."""

    kind: str  # "not-final" | "success" | "fail"
    reason: str | None = None

    @property
    def is_final(self) -> bool:
        return self.kind != "not-final"

    @property
    def is_success(self) -> bool:
        return self.kind == "success"

    @property
    def is_fail(self) -> bool:
        return self.kind == "fail"


NOT_FINAL = Verdict("not-final")
SUCCESS = Verdict("success")


def failed(reason: str) -> Verdict:
    return Verdict("fail", reason)


# --- Template instantiation ------------------------------------------------------


def resolve_instance(spec: AlgorithmSpec, x: Structure, xi: History, qname: str, _active: tuple[str, ...] = ()) -> Query | None:
    """The current instance of a named template, or None if not yet determined."""
    if qname in _active:
        raise InstantiationError(f"query template {qname!r} references itself through replies")
    return instantiate(spec, x, xi, spec.template(qname), _active=_active + (qname,))


def instantiate(
    spec: AlgorithmSpec, x: Structure, xi: History, template: QueryTemplate, _active: tuple[str, ...] = ()
) -> Query | None:
    """Evaluate a template against a history; None when a needed reply is missing."""
    parts: list[Label | Elem] = []
    for comp in template.parts:
        if isinstance(comp, Label):
            parts.append(comp)
            continue
        valuation = _reply_valuation(spec, x, xi, comp, _active)
        if valuation is None:
            return None
        parts.append(Elem(eval_term(x, comp, valuation)))
    return Query(tuple(parts))


def _reply_valuation(
    spec: AlgorithmSpec, x: Structure, xi: History, term: Term, _active: tuple[str, ...] = ()
) -> dict[str, str] | None:
    """Replies for every reply-variable of a term, or None if any is unanswered."""
    valuation: dict[str, str] = {}
    for v in term_variables(term):
        if isinstance(v, Var):
            raise InstantiationError(f"free variable ${v.name} cannot appear in rule terms")
        if v.name in valuation:
            continue
        inst = resolve_instance(spec, x, xi, v.name, _active)
        if inst is None or inst not in xi.domain:
            return None
        valuation[v.name] = xi.reply(inst)
    return valuation


# --- Guard evaluation -------------------------------------------------------------


def holds(spec: AlgorithmSpec, x: Structure, xi: History, guard: Guard) -> bool:
    """Whether a history satisfies a guard.

    Atoms that need a reply which the history does not provide are false;
    their negations are therefore true, matching the reading "has no reply
    yet" of partial-information conditions.
    """
    if isinstance(guard, Start):
        return not xi.entries
    if isinstance(guard, Answered):
        inst = resolve_instance(spec, x, xi, guard.qname)
        return inst is not None and inst in xi.domain
    if isinstance(guard, Unanswered):
        inst = resolve_instance(spec, x, xi, guard.qname)
        return inst is None or inst not in xi.domain
    if isinstance(guard, ReplyEq):
        inst = resolve_instance(spec, x, xi, guard.qname)
        if inst is None or inst not in xi.domain:
            return False
        valuation = _reply_valuation(spec, x, xi, guard.term)
        if valuation is None:
            return False
        return xi.reply(inst) == eval_term(x, guard.term, valuation)
    if isinstance(guard, (Before, Simultaneous)):
        a = resolve_instance(spec, x, xi, guard.first)
        b = resolve_instance(spec, x, xi, guard.second)
        if a is None or b is None or a not in xi.domain or b not in xi.domain:
            return False
        pa, pb = xi.phase_of(a), xi.phase_of(b)
        return pa < pb if isinstance(guard, Before) else pa == pb
    if isinstance(guard, TermEq):
        lv = _reply_valuation(spec, x, xi, guard.left)
        rv = _reply_valuation(spec, x, xi, guard.right)
        if lv is None or rv is None:
            return False
        return eval_term(x, guard.left, lv) == eval_term(x, guard.right, rv)
    if isinstance(guard, Not):
        return not holds(spec, x, xi, guard.inner)
    if isinstance(guard, And):
        return holds(spec, x, xi, guard.left) and holds(spec, x, xi, guard.right)
    if isinstance(guard, Or):
        return holds(spec, x, xi, guard.left) or holds(spec, x, xi, guard.right)
    raise ModelError(f"unknown guard node {guard!r}")


# --- Causality, issued, pending ----------------------------------------------------


@lru_cache(maxsize=None)
def causes(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by exactly this history: fired issue rules, instantiated."""
    out: set[Query] = set()
    for rule in spec.issue_rules:
        if holds(spec, x, xi, rule.guard):
            q = instantiate(spec, x, xi, rule.template)
            if q is None:
                raise InstantiationError(
                    f"issue rule {rule.name!r} fired but its query mentions an unanswered reply"
                )
            out.add(q)
    return frozenset(out)


@lru_cache(maxsize=None)
def issued(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by any initial segment of the history."""
    out: set[Query] = set()
    for eta in initial_segments(xi):
        out |= causes(spec, x, eta)
    return frozenset(out)


def pending(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Issued queries that have no reply yet."""
    return issued(spec, x, xi) - xi.domain


def is_coherent(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """Every answered query was issued on the basis of a strictly earlier prefix."""
    return all(q in issued(spec, x, restrict_before(xi, q)) for q in xi.domain)


def is_complete(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """No issued query remains unanswered."""
    return not pending(spec, x, xi)


# --- Verdicts, updates, next state ---------------------------------------------------


def matched_final_rules(spec: AlgorithmSpec, x: Structure, xi: History) -> tuple[FinalRule, ...]:
    return tuple(r for r in spec.final_rules if holds(spec, x, xi, r.guard))


def explicitly_final(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    return bool(matched_final_rules(spec, x, xi))


@lru_cache(maxsize=None)
def verdict(spec: AlgorithmSpec, x: Structure, xi: History) -> Verdict:
    """Classify a history as not final, final-success, or final-fail.

    Final iff a final rule fires or the history is complete.  At a final
    history, any firing fail rule or a clash in the update set forces the
    fail verdict; success and fail are exclusive by construction.
    """
    matched = matched_final_rules(spec, x, xi)
    if not matched and not is_complete(spec, x, xi):
        return NOT_FINAL
    for rule in matched:
        if rule.outcome == "fail":
            return failed(f"rule {rule.name}")
    loc = detect_clash(update_set(spec, x, xi))
    if loc is not None:
        return failed(f"clash at {format_location(loc)}")
    return SUCCESS


def is_attainable(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """Coherent, and no proper initial segment is final."""
    if not is_coherent(spec, x, xi):
        return False
    return all(not verdict(spec, x, eta).is_final for eta in initial_segments(xi)[:-1])


@lru_cache(maxsize=None)
def update_set(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Update]:
    """Updates of every fired update rule; trivial updates are retained."""
    out: set[Update] = set()
    for rule in spec.update_rules:
        if not holds(spec, x, xi, rule.guard):
            continue
        values: list[str] = []
        for term in (*rule.args, rule.value):
            valuation = _reply_valuation(spec, x, xi, term)
            if valuation is None:
                raise InstantiationError(
                    f"update rule {rule.name!r} fired but mentions an unanswered reply"
                )
            values.append(eval_term(x, term, valuation))
        out.add(Update(Location(rule.symbol, tuple(values[:-1])), values[-1]))
    return frozenset(out)


def next_state(spec: AlgorithmSpec, x: Structure, xi: History) -> Structure:
    """Apply the update set of a successful final history."""
    v = verdict(spec, x, xi)
    if not v.is_success:
        raise NotSuccessful(f"next_state requires a successful verdict, got {v.kind}")
    from .structure import apply_updates

    return apply_updates(x, update_set(spec, x, xi))


# --- Declared-bound and witness conformance --------------------------------------------


@dataclass(frozen=True)
class BoundsIssue:
    history: History
    code: str  # "query-length" | "issued-count" | "domain-size"
    detail: str


def check_bounds(spec: AlgorithmSpec, x: Structure, attainables: Iterable[History]) -> list[BoundsIssue]:
    """Report attainable histories that break the declared work bounds."""
    issues: list[BoundsIssue] = []
    for xi in sorted(attainables, key=lambda h: (h.length, len(h.entries), repr(h))):
        qs = issued(spec, x, xi)
        for q in sorted(qs, key=query_sort_key):
            if len(q.parts) > spec.bounds.max_query_len:
                issues.append(
                    BoundsIssue(xi, "query-length", f"{format_query(q)} has {len(q.parts)} components, bound is {spec.bounds.max_query_len}")
                )
        if len(qs) > spec.bounds.max_issued:
            issues.append(BoundsIssue(xi, "issued-count", f"{len(qs)} issued queries, bound is {spec.bounds.max_issued}"))
        if len(xi.domain) > spec.bounds.max_issued:
            issues.append(BoundsIssue(xi, "domain-size", f"{len(xi.domain)} answered queries, bound is {spec.bounds.max_issued}"))
    return issues


@dataclass(frozen=True)
class WitnessIssue:
    code: str  # "causes-mismatch" | "finality-mismatch" | "updates-mismatch"
    detail: str


def history_valid_for(x: Structure, xi: History) -> bool:
    """All elements mentioned by the history lie in the state's base set."""
    for q, r, _ in xi.entries:
        if r not in x.elements:
            return False
        for c in q.parts:
            if isinstance(c, Elem) and c.ident not in x.elements:
                return False
    return True


def _witness_agrees(spec: AlgorithmSpec, x: Structure, x2: Structure, xi: History) -> bool:
    rng = sorted(xi.reply_range)
    from itertools import product as _product

    for term in spec.witness_terms:
        names = sorted({v.name for v in term_variables(term)})
        for combo in _product(rng, repeat=len(names)):
            valuation = dict(zip(names, combo))
            if eval_term(x, term, valuation) != eval_term(x2, term, valuation):
                return False
    return True


def check_witness(spec: AlgorithmSpec, x: Structure, x2: Structure, xi: History) -> list[WitnessIssue]:
    """If the witness terms cannot tell two states apart under this history's
    replies, the machine's behavior at the history must agree; report any
    disagreement as witness insufficiency."""
    if not history_valid_for(x, xi) or not history_valid_for(x2, xi):
        raise IncompatibleHistory("history mentions elements outside a state's base set")
    if not _witness_agrees(spec, x, x2, xi):
        return []
    issues: list[WitnessIssue] = []
    ca, cb = causes(spec, x, xi), causes(spec, x2, xi)
    if ca != cb:
        diff = ", ".join(format_query(q) for q in sorted(ca ^ cb, key=query_sort_key))
        issues.append(WitnessIssue("causes-mismatch", f"caused queries differ: {diff}"))
    va, vb = verdict(spec, x, xi), verdict(spec, x2, xi)
    if va.kind != vb.kind:
        issues.append(WitnessIssue("finality-mismatch", f"verdicts differ: {va.kind} vs {vb.kind}"))
    ua, ub = update_set(spec, x, xi), update_set(spec, x2, xi)
    if ua != ub:
        issues.append(WitnessIssue("updates-mismatch", f"update sets differ at {len(ua ^ ub)} updates"))
    return issues
