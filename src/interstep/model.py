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

An `Evaluator`, bound to one description and one state, computes causes,
issued, finality, the verdict and the update set, each a function of the
history alone: it keeps nothing per history.  A history issues what its
parent issued and what it causes, so `issued(xi, before)` takes the parent's
set; without it the parent's set is built by the definition, through
`prefix`.  The walk (`analysis._walk`) and the executor hand each history its
parent's set, so only a point query on another history follows `prefix`.

`open_issued` gives an open history's issued set, or None for a final one:
a final rule's guard holds or nothing is pending.  That builds no update
set, so enumeration neither decides success or fail nor meets an update
rule's error.  `classify` gives the verdict of a history known to be final,
with the update set it built.

Guards are compiled, each at its first use, into functions `f(ev, xi)` that
the description keeps, keyed by the guard's identity, and shares between its
states.  A compiled guard takes the evaluator as an argument and holds none,
so it keeps no evaluator alive.  Its atoms read the evaluator's per-state
tables, filled on first use: the instance of a named template that reads no
reply, by template name (the evaluator's one table of such instances), and
the value of a closed term, by the term's repr.  Any other template or term
goes through `Evaluator.instance` and `Evaluator.value`, so a missing or
self-referencing template still fails when an atom first reads it.

The module-level `holds(ev, xi, guard)` is the one entry point that runs a
rule guard's compiled function.  It and `causes`, `issued`, `pending`,
`verdict` and `update_set` (which keep their `(spec, x, xi)` signatures as
thin calls into the evaluator) stay module-level names: the commands call
them, and the benchmark (`perfbench/tracing.py`) times and counts them by
name in every module that binds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterable

from .errors import EngineError
from .history import (
    EMPTY_HISTORY,
    Elem,
    History,
    Label,
    Query,
    format_history,
    format_query,
    initial_segments,
    prefix,
    query_sort_key,
    restrict_before,
)
from .spans import Span
from .structure import (
    Location,
    ReplyVar,
    Structure,
    Term,
    Update,
    Var,
    Vocabulary,
    apply_updates,
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

    @cached_property
    def _template_by_name(self) -> dict[str, QueryTemplate]:
        # reversed, so that the first of two same-named templates wins
        return {t.name: t for t in reversed(self.templates)}

    def template(self, qname: str) -> QueryTemplate:
        return _named_template(self._template_by_name, qname)

    @cached_property
    def _reply_free(self) -> frozenset[str]:
        # names of the named templates that read no reply
        return frozenset(name for name, t in self._template_by_name.items() if not _replies_read(t.parts))

    @cached_property
    def _reply_uses(self) -> dict[str, frozenset[Term] | None]:
        """By named template whose reply a rule reads: the closed terms it is compared with, or None where it flows,
        that is, stands in a `reply(q) = t` with t not closed, a term equality, an emitted template or an update."""
        compared: dict[str, set[Term]] = {}
        terms = [p for r in self.issue_rules for p in r.template.parts] + [t for r in self.update_rules for t in (*r.args, r.value)]
        guards = [r.guard for r in (*self.issue_rules, *self.final_rules, *self.update_rules)]
        while guards:  # a stack, not recursion: guards nest deeply
            g = guards.pop()
            if isinstance(g, (And, Or)):
                guards += (g.left, g.right)
            elif isinstance(g, Not):
                guards.append(g.inner)
            elif isinstance(g, ReplyEq) and _closed(g.term):
                compared.setdefault(g.qname, set()).add(g.term)
            elif isinstance(g, ReplyEq):
                terms += (ReplyVar(g.qname), g.term)
            elif isinstance(g, TermEq):
                terms += (g.left, g.right)
        uses = {name: frozenset(ts) for name, ts in compared.items()} | dict.fromkeys(_replies_read(terms))
        return {name: use for name, use in uses.items() if name in self._template_by_name}

    @cached_property
    def _evaluators(self) -> dict[Structure, Evaluator]:
        return {}

    @cached_property
    def _compiled_guards(self) -> dict[int, tuple[Guard, GuardFn]]:
        # id(guard) -> (guard, compiled guard); filled by `holds`, shared by this spec's evaluators
        return {}

    @cached_property
    def _compiled_nodes(self) -> dict[object, GuardFn]:
        # every compiled guard node, so that equal nodes share one function (see `_compile`)
        return {}

    def evaluator(self, x: Structure) -> Evaluator:
        """This description's evaluator at state x; its per-state tables live as long as the spec."""
        ev = self._evaluators.get(x)
        if ev is None:
            ev = self._evaluators[x] = Evaluator(self, x)
        return ev


# --- Verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """NotFinal, or a final success/fail classification (mutually exclusive), with any update set it built."""

    kind: str  # "not-final" | "success" | "fail"
    reason: str | None = None
    updates: frozenset[Update] | None = field(default=None, compare=False, repr=False)

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


# --- Evaluation at one state -------------------------------------------------------


# the one empty result set: an empty frozenset is a new object each time it is built
_NOTHING: frozenset = frozenset()


def _replies_read(parts: Iterable[Label | Term]) -> set[str]:
    """The names of the templates whose replies some template part or term reads."""
    return {v.name for part in parts if not isinstance(part, Label) for v in term_variables(part) if isinstance(v, ReplyVar)}


def _named_template(by_name: dict[str, QueryTemplate], qname: str) -> QueryTemplate:
    try:
        return by_name[qname]
    except KeyError:
        raise ModelError(f"no query template named {qname!r}") from None


class Evaluator:
    """The semantics of one machine description at one state, as functions of the history.

    It keeps only what depends on the state alone: the instance of each named
    template that reads no reply, and the values of closed terms.  Other named
    templates are resolved at each use, and an issue rule's own template
    whenever the rule fires.
    """

    __slots__ = (
        "_template_by_name", "issue_rules", "final_rules", "update_rules", "x", "_guards", "_nodes", "_reply_free",
        "_fixed_by_name", "_constants", "_closed", "__weakref__",
    )

    def __init__(self, spec: AlgorithmSpec, x: Structure):
        # The parts of the spec it reads, not the spec itself: the spec holds
        # its evaluators, and a reference back would make a cycle that keeps
        # both alive until the cyclic garbage collector runs.
        self._template_by_name = spec._template_by_name
        self.issue_rules = spec.issue_rules
        self.final_rules = spec.final_rules
        self.update_rules = spec.update_rules
        self.x = x
        self._guards = spec._compiled_guards
        self._nodes = spec._compiled_nodes
        self._reply_free = spec._reply_free
        # instances of the named templates that read no reply, read by compiled atoms
        self._fixed_by_name: dict[str, Query] = {}
        self._constants: dict[Term, str] = {}
        # values of the closed terms of compiled guards, keyed by the term's repr: by
        # value, because a spec repeats closed terms such as `yes()` in many guards
        self._closed: dict[str, str] = {}

    # --- template instantiation

    def instance(self, xi: History, qname: str, _active: tuple[str, ...] = ()) -> Query | None:
        """The current instance of a named template, or None if not yet determined."""
        q = self._fixed_by_name.get(qname)
        if q is not None:
            return q
        if qname in _active:
            raise InstantiationError(f"query template {qname!r} references itself through replies")
        template = _named_template(self._template_by_name, qname)
        if qname in self._reply_free:
            q = self._fixed_by_name[qname] = self.instantiate(xi, template)
            return q
        return self.instantiate(xi, template, _active + (qname,))

    def instantiate(self, xi: History, template: QueryTemplate, _active: tuple[str, ...] = ()) -> Query | None:
        """Evaluate a template against a history; None when a needed reply is missing."""
        parts: list[Label | Elem] = []
        for comp in template.parts:
            if isinstance(comp, Label):
                parts.append(comp)
                continue
            value = self.value(xi, comp, _active)
            if value is None:
                return None
            parts.append(Elem(value))
        return Query(tuple(parts))

    def _valuation(self, xi: History, term: Term, _active: tuple[str, ...]) -> dict[str, str] | None:
        """Replies for every reply-variable of a term, or None if any is unanswered."""
        valuation: dict[str, str] = {}
        for v in term_variables(term):
            if isinstance(v, Var):
                raise InstantiationError(f"free variable ${v.name} cannot appear in rule terms")
            if v.name in valuation:
                continue
            inst = self.instance(xi, v.name, _active)
            if inst is None or inst not in xi.answers:
                return None
            valuation[v.name] = xi.reply(inst)
        return valuation

    def value(self, xi: History, term: Term, _active: tuple[str, ...] = ()) -> str | None:
        """A term's value under the history's replies, or None if a reply it reads is missing."""
        out = self._constants.get(term)
        if out is None:
            valuation = self._valuation(xi, term, _active)
            if valuation is None:
                return None
            out = eval_term(self.x, term, valuation)
            if not valuation:
                self._constants[term] = out
        return out

    def constant(self, key: str, term: Term) -> str:
        """The value of a closed term, kept in `_closed` under its repr (the key)."""
        out = self._closed[key] = eval_term(self.x, term)
        return out

    def observed(self, uses: dict[str, frozenset[Term] | None]) -> list[tuple[Query, frozenset[str] | None]] | None:
        """`AlgorithmSpec._reply_uses` here: by named template, its instance and the values its reply is compared with,
        or None where it flows; None for all if a named template reads replies.  Not read at set-up: `step` needs none."""
        if len(self._reply_free) < len(self._template_by_name):
            return None
        empty = EMPTY_HISTORY
        return [(self.instance(empty, name), None if terms is None else frozenset([self.value(empty, t) for t in terms])) for name, terms in uses.items()]

    # --- causality, verdicts, updates

    def causes(self, xi: History) -> frozenset[Query]:
        found: set[Query] = set()
        for rule in self.issue_rules:
            if holds(self, xi, rule.guard):
                q = self.instantiate(xi, rule.template)
                if q is None:
                    raise _rule_error("issue", rule, xi, "its query mentions an unanswered reply")
                found.add(q)
        return frozenset(found) if found else _NOTHING

    def issued(self, xi: History, before: frozenset[Query] | None = None) -> frozenset[Query]:
        """The queries issued at xi; `before` is its parent's issued set, built by the definition through `prefix` when not given."""
        out = self.causes(xi)
        if before is None:
            before = self.issued(prefix(xi, xi.length - 1)) if xi.entries else _NOTHING
        # most histories cause nothing new: share the parent's set
        return before if out <= before else before | out

    def explicitly_final(self, xi: History) -> bool:
        """Whether some final rule's guard holds; the rules are read in order up to the first that does."""
        # a plain loop, not any(<genexpr>): see `_compile`
        for rule in self.final_rules:
            if holds(self, xi, rule.guard):
                return True
        return False

    def open_issued(self, xi: History, before: frozenset[Query] | None = None) -> frozenset[Query] | None:
        """An open history's issued set, None for a final one; `before` is as for `issued`.

        Final means a final rule's guard holds or nothing is pending, so no update set is built.
        """
        if self.explicitly_final(xi):
            return None
        out = self.issued(xi, before)
        return out if out.difference(xi.answers) else None

    def classify(self, xi: History) -> Verdict:
        """The success or fail verdict of a history known to be final, with the update set it built."""
        for rule in self.final_rules:
            if rule.outcome == "fail" and holds(self, xi, rule.guard):
                return Verdict("fail", f"rule {rule.name}")
        updates = self.update_set(xi)
        loc = detect_clash(updates)
        if loc is not None:
            return Verdict("fail", f"clash at {format_location(loc)}", updates)
        return Verdict("success", None, updates)

    def update_set(self, xi: History) -> frozenset[Update]:
        """The updates of every fired update rule."""
        found: set[Update] = set()
        for rule in self.update_rules:
            if not holds(self, xi, rule.guard):
                continue
            values: list[str] = []
            for term in (*rule.args, rule.value):
                value = self.value(xi, term)
                if value is None:
                    raise _rule_error("update", rule, xi, "mentions an unanswered reply")
                values.append(value)
            *args, value = values
            loc = Location(rule.symbol, tuple(args))
            if self.x.vocab.decl(rule.symbol).relational and value != self.x.true_el and value != self.x.false_el:
                problem = f"relational symbol {rule.symbol!r} takes the non-Boolean value {value!r} in {format_location(loc)}"
                raise _rule_error("update", rule, xi, problem)
            found.add(Update(loc, value))
        return frozenset(found) if found else _NOTHING


def _rule_error(kind: str, rule: IssueRule | UpdateRule, xi: History, problem: str) -> InstantiationError:
    """The error of a rule that fired: the rule's position first when it has one, the history last."""
    where = f"{rule.span}: " if rule.span is not None else ""
    return InstantiationError(f"{where}{kind} rule {rule.name!r} fired but {problem} at {format_history(xi)}")


# --- Guard evaluation -------------------------------------------------------------


GuardFn = Callable[[Evaluator, History], bool]


def holds(ev: Evaluator, xi: History, guard: Guard) -> bool:
    """Whether a history satisfies a guard.

    Atoms that need a reply which the history does not provide are false;
    their negations are therefore true, matching the reading "has no reply
    yet" of partial-information conditions.  The guard is compiled at its
    first use, and the compiled function is kept with the description.
    """
    entry = ev._guards.get(id(guard))
    if entry is None:
        # the entry holds the guard, so that its id stays unique while the entry lives
        entry = ev._guards[id(guard)] = (guard, _compile(guard, ev._nodes))
    return entry[1](ev, xi)


def _compile(guard: Guard, nodes: dict[object, GuardFn]) -> GuardFn:
    """A function of (evaluator, history) computing the guard.

    It is a module-level function below with the node's names, terms and
    compiled operands bound first.  Equal nodes of one description share one
    function through `nodes`: an atom is keyed by its value, a connective by
    its kind and its operands' functions, so no key hashes a whole subtree.

    Atoms look a template's instance up in `ev._fixed_by_name` first, which
    holds only templates that read no reply, and a closed term's value in
    `ev._closed`; on a miss they ask the evaluator, which fills the table or
    raises.  Connectives evaluate their operands left to right and stop early,
    as the tree walk in `tests/oracle.py` does.
    """
    if isinstance(guard, (And, Or)):
        # a list, not a generator expression: one generator per connective raised the
        # resident memory a `session` benchmark round leaves behind by a third
        parts = tuple([_compile(g, nodes) for g in _chain(guard)])
        key: object = (_all_of if isinstance(guard, And) else _any_of, parts)
    elif isinstance(guard, Not):
        key = (_not, _compile(guard.inner, nodes))
    else:
        key = guard
    f = nodes.get(key)
    if f is None:
        f = nodes[key] = partial(*key) if isinstance(key, tuple) else _atom(guard)
    return f


def _atom(guard: Guard) -> GuardFn:
    if isinstance(guard, Start):
        return _start
    if isinstance(guard, Answered):
        return partial(_answered, guard.qname)
    if isinstance(guard, Unanswered):
        return partial(_unanswered, guard.qname)
    if isinstance(guard, ReplyEq):
        if _closed(guard.term):
            return partial(_reply_is, guard.qname, repr(guard.term), guard.term)
        return partial(_reply_eq, guard.qname, guard.term)
    if isinstance(guard, Before):
        return partial(_before, guard.first, guard.second)
    if isinstance(guard, Simultaneous):
        return partial(_simultaneous, guard.first, guard.second)
    if isinstance(guard, TermEq):
        return partial(_term_eq, guard.left, guard.right)
    return partial(_unknown, guard)


def _all_of(parts: tuple[GuardFn, ...], ev: Evaluator, xi: History) -> bool:
    for f in parts:
        if not f(ev, xi):
            return False
    return True


def _any_of(parts: tuple[GuardFn, ...], ev: Evaluator, xi: History) -> bool:
    for f in parts:
        if f(ev, xi):
            return True
    return False


def _not(inner: GuardFn, ev: Evaluator, xi: History) -> bool:
    return not inner(ev, xi)


def _start(ev: Evaluator, xi: History) -> bool:
    return not xi.entries


def _answered(qname: str, ev: Evaluator, xi: History) -> bool:
    return (ev._fixed_by_name.get(qname) or ev.instance(xi, qname)) in xi.answers


def _unanswered(qname: str, ev: Evaluator, xi: History) -> bool:
    return (ev._fixed_by_name.get(qname) or ev.instance(xi, qname)) not in xi.answers


def _reply_is(qname: str, key: str, term: Term, ev: Evaluator, xi: History) -> bool:
    """The reply to qname equals a closed term, whose value is read once per state."""
    reply = xi.answers.get(ev._fixed_by_name.get(qname) or ev.instance(xi, qname))
    return reply is not None and reply == (ev._closed.get(key) or ev.constant(key, term))


def _reply_eq(qname: str, term: Term, ev: Evaluator, xi: History) -> bool:
    reply = xi.answers.get(ev._fixed_by_name.get(qname) or ev.instance(xi, qname))
    return reply is not None and reply == ev.value(xi, term)


def _phases(first: str, second: str, ev: Evaluator, xi: History) -> tuple[int, int] | None:
    fixed = ev._fixed_by_name
    a = fixed.get(first) or ev.instance(xi, first)
    b = fixed.get(second) or ev.instance(xi, second)
    phases = xi.phase_map
    pa, pb = phases.get(a), phases.get(b)
    return None if pa is None or pb is None else (pa, pb)


def _before(first: str, second: str, ev: Evaluator, xi: History) -> bool:
    p = _phases(first, second, ev, xi)
    return p is not None and p[0] < p[1]


def _simultaneous(first: str, second: str, ev: Evaluator, xi: History) -> bool:
    p = _phases(first, second, ev, xi)
    return p is not None and p[0] == p[1]


def _term_eq(left: Term, right: Term, ev: Evaluator, xi: History) -> bool:
    lv, rv = ev.value(xi, left), ev.value(xi, right)
    return lv is not None and lv == rv


def _unknown(guard: Guard, ev: Evaluator, xi: History) -> bool:
    raise ModelError(f"unknown guard node {guard!r}")


def _chain(guard: And | Or) -> list[Guard]:
    """The operands of a chain of one connective, left to right, without recursion."""
    kind = type(guard)
    out: list[Guard] = []
    stack: list[Guard] = [guard]
    while stack:
        g = stack.pop()
        if type(g) is kind:
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def _closed(term: Term) -> bool:
    return next(term_variables(term), None) is None


# --- The semantics as functions of (spec, state, history) ---------------------------


def causes(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by exactly this history: fired issue rules, instantiated."""
    return spec.evaluator(x).causes(xi)


def issued(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by any initial segment of the history."""
    return spec.evaluator(x).issued(xi)


def pending(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Issued queries that have no reply yet."""
    return spec.evaluator(x).issued(xi).difference(xi.answers)


def is_coherent(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """Every answered query was issued on the basis of a strictly earlier prefix."""
    return all(q in issued(spec, x, restrict_before(xi, q)) for q in xi.answers)


def is_complete(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """No issued query remains unanswered."""
    return not pending(spec, x, xi)


def verdict(spec: AlgorithmSpec, x: Structure, xi: History, *, final: bool = False) -> Verdict:
    """Classify a history as not final, final-success, or final-fail.

    Final iff a final rule fires or the history is complete.  At a final
    history, any firing fail rule or a clash in the update set forces the
    fail verdict; success and fail are exclusive by construction.  With
    `final`, the caller has found xi final, and finality is not read again.
    """
    ev = spec.evaluator(x)
    return ev.classify(xi) if final or ev.open_issued(xi) is None else NOT_FINAL


def is_attainable(spec: AlgorithmSpec, x: Structure, xi: History) -> bool:
    """Coherent, and no proper initial segment is final."""
    if not is_coherent(spec, x, xi):
        return False
    ev = spec.evaluator(x)
    return all(ev.open_issued(eta) is not None for eta in initial_segments(xi)[:-1])


def update_set(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Update]:
    """Updates of every fired update rule; trivial updates are retained."""
    return spec.evaluator(x).update_set(xi)


def next_state(spec: AlgorithmSpec, x: Structure, xi: History) -> Structure:
    """Apply the update set of a successful final history."""
    v = verdict(spec, x, xi)
    if not v.is_success:
        raise NotSuccessful(f"next_state requires a successful verdict, got {v.kind}")
    return apply_updates(x, v.updates)


# --- Declared-bound and witness conformance --------------------------------------------


@dataclass(frozen=True)
class BoundsIssue:
    history: History
    code: str  # "query-length" | "issued-count" | "domain-size"
    detail: str


def check_bounds(spec: AlgorithmSpec, x: Structure, attainables: Iterable[History]) -> list[BoundsIssue]:
    """Report attainable histories that break the declared work bounds, in the order given."""
    return bound_violations(spec.bounds, ((xi, issued(spec, x, xi)) for xi in attainables))


def bound_violations(bounds: Bounds, issued_sets: Iterable[tuple[History, frozenset[Query]]]) -> list[BoundsIssue]:
    """As `check_bounds`, from each history paired with its issued set."""
    issues: list[BoundsIssue] = []
    for xi, qs in issued_sets:
        for q in sorted(qs, key=query_sort_key):
            if len(q.parts) > bounds.max_query_len:
                issues.append(
                    BoundsIssue(xi, "query-length", f"{format_query(q)} has {len(q.parts)} components, bound is {bounds.max_query_len}")
                )
        if len(qs) > bounds.max_issued:
            issues.append(BoundsIssue(xi, "issued-count", f"{len(qs)} issued queries, bound is {bounds.max_issued}"))
        if len(xi.entries) > bounds.max_issued:
            issues.append(BoundsIssue(xi, "domain-size", f"{len(xi.entries)} answered queries, bound is {bounds.max_issued}"))
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
    rng = sorted({r for _, r, _ in xi.entries})
    for w in spec.witness:
        names = sorted({v.name for v in term_variables(w.term)})
        for combo in product(rng, repeat=len(names)):
            valuation = dict(zip(names, combo))
            if eval_term(x, w.term, valuation) != eval_term(x2, w.term, valuation):
                return False
    return True


def check_witness(spec: AlgorithmSpec, x: Structure, x2: Structure, xi: History, va: Verdict | None = None) -> list[WitnessIssue]:
    """If the witness terms cannot tell two states apart under this history's
    replies, the machine's behavior at the history must agree; report any
    disagreement as witness insufficiency.  `va`, if given, is xi's verdict at x."""
    if not history_valid_for(x, xi) or not history_valid_for(x2, xi):
        raise IncompatibleHistory("history mentions elements outside a state's base set")
    if not _witness_agrees(spec, x, x2, xi):
        return []
    issues: list[WitnessIssue] = []
    ca, cb = causes(spec, x, xi), causes(spec, x2, xi)
    if ca != cb:
        diff = ", ".join(format_query(q) for q in sorted(ca ^ cb, key=query_sort_key))
        issues.append(WitnessIssue("causes-mismatch", f"caused queries differ: {diff}"))
    va, vb = va or verdict(spec, x, xi), verdict(spec, x2, xi)
    if va.kind != vb.kind:
        issues.append(WitnessIssue("finality-mismatch", f"verdicts differ: {va.kind} vs {vb.kind}"))
    # only a successful final has an update set, and its verdict carries it
    elif va.is_success and va.updates != vb.updates:
        issues.append(WitnessIssue("updates-mismatch", f"update sets differ at {len(va.updates ^ vb.updates)} updates"))
    return issues
