"""Reference implementations for the tests: brute force and the uncached semantics.

`interstep.analysis.all_bounded_histories` produces *all* phase-partitioned
answer functions over the query universe inside the bounds, and
`brute_force_coherent` keeps the coherent ones.  The oracles here filter them
further by the definitions: no proper final prefix, the old step-a scan for a
final segment, and `brute_force_truncated`, which asks whether an attainable
history has pending queries that a bound leaves no room for.  They are
exponential and exist to cross-check `enumerate_attainable` (its histories
and its truncation flag), the equivalence walk and `check_postulates`.  The generators themselves are
re-exported, so that the tests take every brute-force name from this module.

`reference_compare` is the equivalence check that the single walk of
`interstep.analysis._compare` replaced: it enumerates each description's
attainable tree on its own, takes the symmetric difference and the
intersection of the two sets, and sorts the intersection to find each
clause's first bad history.  The walk's reports must equal its reports, full
and weak.  The evaluator keeps nothing per history, so it and
`brute_force_attainable` read issued sets and verdicts through
`_point_queries`, a cache that lives for one call and computes each
history's values once.

`reference_causes`, `reference_issued`, `reference_verdict` and
`reference_update_set` are the paper's definitions read off the rules
directly, with no memo: every template is instantiated again at each use,
and `issued` is the union of `causes` over all initial segments.  They check
`interstep.model.Evaluator`.

`DenseStructure` is the former representation of a structure: `make` fills
every symbol's table of |base|^arity entries, the logic tables derived in
full, and `dense_apply_updates`, `dense_transport`, `dense_validate_structure`
and `dense_check_isomorphism` walk those tables.  They check the sparse
`interstep.structure.Structure`.  Explicit entries override anything here, so
a dense structure may break the logic conventions; `dense_validate_structure`
lists each broken one as a `ConventionIssue`, and the sparse structure must
refuse to be built exactly when the list is not empty.  `all_locations`,
`location_value` and `is_trivial` read any structure.

`is_initial_segment`, `restrict_upto`, `common_prefix_comparable` and
`complete_history` (with the `PreconditionViolation` and `CapExceeded` it
raises) are history helpers.  `format_script` prints a script that
`interstep.execution.parse_script` reads, and `format_iso` an iso file that
`interstep.dsl.parse_iso` reads; the tests are their only users.

`reference_tokenize` is the character-by-character lexer the regex lexer of
`interstep.dsl` replaced, kept unchanged with its frozen `ReferenceToken`
(it read `str.isdigit`, so it took non-ASCII digits for a numeral; the regex
lexer rejects them).  `reference_parse_spec` runs the parser on its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Callable, Iterable, Iterator

from interstep.analysis import (
    ClauseOutcome,
    Divergence,
    EnumerationConfig,
    EquivalenceReport,
    _divergence_key,
    all_bounded_histories,
    brute_force_coherent,
    enumerate_attainable,
    equivalent,
    query_universe,
    weak_equivalent,
)
from interstep.dsl import _KEYWORDS, DslSyntaxError, _Parser
from interstep.execution import Batch, Stall
from interstep.history import (
    AnswerFunction,
    Elem,
    History,
    HistoryError,
    Label,
    Query,
    append_class,
    format_history,
    format_query,
    history_sort_key,
    initial_segments,
    prefix,
    query_sort_key,
    restrict_before,
)
from interstep.isomorphism import Isomorphism
from interstep.model import (
    NOT_FINAL,
    And,
    AlgorithmSpec,
    Answered,
    Before,
    Guard,
    InstantiationError,
    ModelError,
    Not,
    Or,
    QueryTemplate,
    ReplyEq,
    Simultaneous,
    Start,
    TermEq,
    Unanswered,
    Verdict,
    pending,
    verdict,
)
from interstep.spans import Span
from interstep.structure import (
    AND,
    BOOLE,
    EQ,
    FALSE,
    NOT,
    OR,
    TRUE,
    UNDEF,
    ArityMismatch,
    ClashError,
    Interp,
    Location,
    Structure,
    StructureError,
    Term,
    Update,
    Var,
    Vocabulary,
    _check_update,
    detect_clash,
    eval_term,
    format_location,
    term_variables,
)

__all__ = [
    "CapExceeded",
    "ConventionIssue",
    "DenseStructure",
    "PreconditionViolation",
    "agreement_property",
    "all_bounded_histories",
    "all_locations",
    "brute_force_attainable",
    "brute_force_coherent",
    "brute_force_step_a",
    "brute_force_truncated",
    "common_prefix_comparable",
    "complete_history",
    "dense_apply_updates",
    "dense_check_isomorphism",
    "dense_transport",
    "dense_validate_structure",
    "derived_logic_tables",
    "format_iso",
    "format_script",
    "holds",
    "is_initial_segment",
    "is_trivial",
    "location_value",
    "query_universe",
    "reference_causes",
    "reference_compare",
    "reference_issued",
    "reference_parse_spec",
    "reference_tokenize",
    "reference_update_set",
    "reference_verdict",
    "restrict_upto",
]


def _point_queries(spec: AlgorithmSpec, x: Structure) -> tuple[Callable[[History], frozenset[Query]], Callable[[History], Verdict]]:
    """`issued` and `verdict` at one state, each computed once per history for as long as the pair lives.

    The evaluator keeps nothing per history, and a point query builds the parent's
    issued set by the definition; these build it once and hand it on, as the walk does.
    """
    ev = spec.evaluator(x)

    @cache
    def issued_at(xi: History) -> frozenset[Query]:
        return ev.issued(xi, issued_at(prefix(xi, xi.length - 1)) if xi.entries else None)

    @cache
    def verdict_at(xi: History) -> Verdict:
        # final: nothing is pending, or a final rule's guard holds
        final = not issued_at(xi).difference(xi.answers) or ev.explicitly_final(xi)
        return ev.classify(xi) if final else NOT_FINAL

    return issued_at, verdict_at


def _has_proper_final_prefix(verdict_at: Callable[[History], Verdict], xi: History) -> bool:
    return any(verdict_at(eta).is_final for eta in initial_segments(xi)[:-1])


def brute_force_attainable(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> frozenset[History]:
    """Filter all bounded histories by coherence and no-proper-final-prefix.

    Coherent: every answered query was issued at the initial segment before its phase, as `is_coherent` reads it.
    """
    issued_at, verdict_at = _point_queries(spec, x)
    return frozenset(
        xi
        for xi in all_bounded_histories(spec, x, cfg)
        if all(q in issued_at(restrict_before(xi, q)) for q in xi.answers) and not _has_proper_final_prefix(verdict_at, xi)
    )


def brute_force_truncated(spec: AlgorithmSpec, x: Structure, cfg: EnumerationConfig) -> bool:
    """Whether a bound cuts the attainable tree, by the definitions.

    Some attainable history inside the bounds is not final and has pending
    queries, and either it has `max_phases` classes or more queries are
    pending than `max_domain` leaves room for beside its domain.
    """
    for xi in brute_force_attainable(spec, x, cfg):
        if reference_verdict(spec, x, xi).is_final:
            continue
        pend = reference_issued(spec, x, xi) - xi.domain
        if pend and (xi.length >= cfg.max_phases or len(pend) > cfg.max_domain - len(xi.domain)):
            return True
    return False


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
                ok = any(spec.evaluator(x).explicitly_final(eta) for eta in segs)
            else:
                ok = any(verdict(spec, x, eta).is_final for eta in segs)
            if not ok:
                step_a.append(f"state {sdef.name}: complete coherent {format_history(xi)} has no final prefix")
    return step_a


def agreement_property(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig) -> bool:
    """The full and weak checkers must return the same verdict."""
    return equivalent(spec_a, spec_b, cfg).equivalent == weak_equivalent(spec_a, spec_b, cfg).equivalent


def reference_compare(spec_a: AlgorithmSpec, spec_b: AlgorithmSpec, cfg: EnumerationConfig, weak: bool) -> EquivalenceReport:
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
        (issued_a, verdict_a), (issued_b, verdict_b) = _point_queries(spec_a, x), _point_queries(spec_b, x)
        bad3 = [xi for xi in common if issued_a(xi) != issued_b(xi)]
        clauses.append(
            ClauseOutcome(3, sdef.name, not bad3, f"issued sets agree on {len(common)} histories" if not bad3 else f"issued sets differ on {len(bad3)} histories")
        )
        if bad3:
            w = bad3[0]
            diff = " ".join(format_query(q) for q in sorted(issued_a(w) ^ issued_b(w), key=query_sort_key))
            divergences.append(Divergence(sdef.name, w, 3, f"issued sets differ by {diff}"))
        bad4 = [xi for xi in common if verdict_a(xi).kind != verdict_b(xi).kind]
        clauses.append(
            ClauseOutcome(4, sdef.name, not bad4, "final classifications agree" if not bad4 else f"final classifications differ on {len(bad4)} histories")
        )
        if bad4:
            w = bad4[0]
            divergences.append(Divergence(sdef.name, w, 4, f"{verdict_a(w).kind} vs {verdict_b(w).kind}"))
        succ = [xi for xi in common if verdict_a(xi).is_success and verdict_b(xi).is_success]
        # a success verdict carries the update set that classifying built
        bad5 = [xi for xi in succ if verdict_a(xi).updates != verdict_b(xi).updates]
        clauses.append(
            ClauseOutcome(5, sdef.name, not bad5, f"update sets agree on {len(succ)} successful finals" if not bad5 else f"update sets differ on {len(bad5)} histories")
        )
        if bad5:
            divergences.append(Divergence(sdef.name, bad5[0], 5, "update sets differ"))

    ok = all(c.passed for c in clauses)
    div = min(divergences, key=_divergence_key) if divergences else None
    return EquivalenceReport(ok, "weak" if weak else "full", truncated, tuple(clauses), div)


# --- The uncached semantics ---------------------------------------------------------


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


def holds(spec: AlgorithmSpec, x: Structure, xi: History, guard: Guard) -> bool:
    """Whether a history satisfies a guard; an atom that needs a missing reply is false."""
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


def reference_causes(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by exactly this history: fired issue rules, instantiated."""
    out: set[Query] = set()
    for rule in spec.issue_rules:
        if holds(spec, x, xi, rule.guard):
            q = instantiate(spec, x, xi, rule.template)
            if q is None:
                raise InstantiationError(f"issue rule {rule.name!r} fired but its query mentions an unanswered reply")
            out.add(q)
    return frozenset(out)


def reference_issued(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Query]:
    """Queries caused by any initial segment of the history."""
    out: set[Query] = set()
    for eta in initial_segments(xi):
        out |= reference_causes(spec, x, eta)
    return frozenset(out)


def reference_verdict(spec: AlgorithmSpec, x: Structure, xi: History) -> Verdict:
    """Final iff a final rule fires or nothing issued is pending; fail rules and clashes fail."""
    matched = [r for r in spec.final_rules if holds(spec, x, xi, r.guard)]
    if not matched and reference_issued(spec, x, xi) - xi.domain:
        return NOT_FINAL
    for rule in matched:
        if rule.outcome == "fail":
            return Verdict("fail", f"rule {rule.name}")
    loc = detect_clash(reference_update_set(spec, x, xi))
    if loc is not None:
        return Verdict("fail", f"clash at {format_location(loc)}")
    return Verdict("success")


def reference_update_set(spec: AlgorithmSpec, x: Structure, xi: History) -> frozenset[Update]:
    """Updates of every fired update rule; trivial updates are retained."""
    out: set[Update] = set()
    for rule in spec.update_rules:
        if not holds(spec, x, xi, rule.guard):
            continue
        values: list[str] = []
        for term in (*rule.args, rule.value):
            valuation = _reply_valuation(spec, x, xi, term)
            if valuation is None:
                raise InstantiationError(f"update rule {rule.name!r} fired but mentions an unanswered reply")
            values.append(eval_term(x, term, valuation))
        out.add(Update(Location(rule.symbol, tuple(values[:-1])), values[-1]))
    return frozenset(out)


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # keyword text, punct text, "IDENT", "NAT", "EOF"
    text: str
    span: Span


def reference_tokenize(text: str) -> list[ReferenceToken]:
    tokens: list[ReferenceToken] = []
    i = 0
    line = 1
    col = 1
    byte = 0
    n = len(text)

    def bump(ch: str) -> None:
        nonlocal line, col, byte
        byte += len(ch.encode("utf-8"))
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            bump(ch)
            i += 1
            continue
        if ch == "#":
            # comment to end of line; only literals, scripts and iso files mark
            # elements with `#`, in the `elements` mode of the dsl lexer
            while i < n and text[i] != "\n":
                bump(text[i])
                i += 1
            continue
        start_line, start_col, start_byte = line, col, byte
        two = text[i : i + 2]
        if two in ("->", ":="):
            for c in two:
                bump(c)
            i += 2
            tokens.append(ReferenceToken(two, two, Span(start_line, start_col, start_byte, byte)))
            continue
        if ch in "{}():;,=/@$":
            bump(ch)
            i += 1
            tokens.append(ReferenceToken(ch, ch, Span(start_line, start_col, start_byte, byte)))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            for c in word:
                bump(c)
            i = j
            tokens.append(ReferenceToken("NAT", word, Span(start_line, start_col, start_byte, byte)))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if not word.isascii():
                raise DslSyntaxError(
                    f"identifier {word!r} contains non-ASCII characters",
                    Span(start_line, start_col, start_byte, start_byte + len(word.encode("utf-8"))),
                )
            for c in word:
                bump(c)
            i = j
            kind = word if word in _KEYWORDS else "IDENT"
            tokens.append(ReferenceToken(kind, word, Span(start_line, start_col, start_byte, byte)))
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", Span(line, col, byte, byte + len(ch.encode("utf-8"))))
    tokens.append(ReferenceToken("EOF", "", Span(line, col, byte, byte)))
    return tokens


def reference_parse_spec(text: str) -> AlgorithmSpec:
    """parse_spec on the reference lexer's tokens."""
    tokens = reference_tokenize(text)

    def span(first: int, last: int) -> Span:
        start = tokens[first].span
        return Span(start.line, start.column, start.start, tokens[last].span.end)

    return _Parser([t.kind for t in tokens], [t.text for t in tokens], span).parse_spec()


# --- Dense structures -------------------------------------------------------------


@dataclass(frozen=True)
class DenseStructure:
    """A structure that stores every entry of every symbol's table."""

    vocab: Vocabulary
    base: tuple[str, ...]
    tables: tuple[tuple[str, tuple[tuple[tuple[str, ...], str], ...]], ...]

    @staticmethod
    def make(vocab: Vocabulary, base: Iterable[str], interp: Interp | None = None) -> DenseStructure:
        """Derive the logic tables, default the unlisted entries, then apply the explicit ones."""
        elems = tuple(sorted(set(base)))
        if not elems:
            raise StructureError("base set must be nonempty")
        eset = frozenset(elems)
        given: dict[str, dict[tuple[str, ...], str]] = {}
        for fname, entries in (interp or {}).items():
            decl = vocab.decl(fname)
            for args, value in entries.items():
                args = tuple(args)
                if len(args) != decl.arity:
                    raise ArityMismatch(
                        f"interpretation entry for {fname!r} has {len(args)} arguments, arity is {decl.arity}"
                    )
                for e in (*args, value):
                    if e not in eset:
                        raise StructureError(f"element {e!r} in entry for {fname!r} is not in the base set")
                given.setdefault(fname, {})[args] = value

        def designated(name: str) -> str:
            if name in given and () in given[name]:
                return given[name][()]
            if name in eset:
                return name
            raise StructureError(f"no interpretation for {name!r} and no same-named base element")

        t, f, u = designated(TRUE), designated(FALSE), designated(UNDEF)
        tables = derived_logic_tables(elems, t, f, u)
        for d in vocab.symbols:
            tab = tables.get(d.name)
            if tab is None:
                default = f if d.relational else u
                tab = {args: default for args in product(elems, repeat=d.arity)}
                tables[d.name] = tab
            tab.update(given.get(d.name, {}))
        return DenseStructure(vocab, elems, _freeze(tables))

    @cached_property
    def _lookup(self) -> dict[str, dict[tuple[str, ...], str]]:
        return {name: dict(entries) for name, entries in self.tables}

    @cached_property
    def elements(self) -> frozenset[str]:
        return frozenset(self.base)

    def value(self, symbol: str, args: Iterable[str] = ()) -> str:
        decl = self.vocab.decl(symbol)
        args = tuple(args)
        if len(args) != decl.arity:
            raise ArityMismatch(f"{symbol!r} applied to {len(args)} arguments, arity is {decl.arity}")
        try:
            return self._lookup[symbol][args]
        except KeyError:
            missing = [e for e in args if e not in self.elements]
            raise StructureError(f"arguments {missing!r} to {symbol!r} are not in the base set") from None

    @property
    def true_el(self) -> str:
        return self.value(TRUE)

    @property
    def false_el(self) -> str:
        return self.value(FALSE)

    @property
    def undef_el(self) -> str:
        return self.value(UNDEF)


def _freeze(tables: dict[str, dict[tuple[str, ...], str]]) -> tuple:
    return tuple((name, tuple(sorted(tab.items()))) for name, tab in sorted(tables.items()))


def derived_logic_tables(elems: tuple[str, ...], t: str, f: str, u: str) -> dict[str, dict[tuple[str, ...], str]]:
    bools = (t, f)

    def binary(op) -> dict[tuple[str, ...], str]:
        return {
            (x, y): (t if op(x == t, y == t) else f) if x in bools and y in bools else f
            for x in elems
            for y in elems
        }

    return {
        TRUE: {(): t},
        FALSE: {(): f},
        UNDEF: {(): u},
        BOOLE: {(x,): t if x in bools else f for x in elems},
        EQ: {(x, y): t if x == y else f for x in elems for y in elems},
        NOT: {(x,): (f if x == t else t) if x in bools else f for x in elems},
        AND: binary(lambda a, b: a and b),
        OR: binary(lambda a, b: a or b),
    }


def dense_apply_updates(x: DenseStructure, updates: Iterable[Update]) -> DenseStructure:
    ups = frozenset(updates)
    for u in ups:
        _check_update(x, u)
    loc = detect_clash(ups)
    if loc is not None:
        raise ClashError(loc)
    if not ups:
        return x
    new_tables = {name: dict(entries) for name, entries in x.tables}
    for u in ups:
        new_tables[u.location.symbol][u.location.args] = u.value
    return DenseStructure(x.vocab, x.base, _freeze(new_tables))


def dense_transport(iso: Isomorphism, x: DenseStructure) -> DenseStructure:
    tables = {
        name: {iso.map_tuple(args): iso.map_element(v) for args, v in entries}
        for name, entries in x.tables
    }
    return DenseStructure(x.vocab, tuple(sorted(iso.map_element(e) for e in x.base)), _freeze(tables))


def dense_check_isomorphism(mapping: dict[str, str], x: DenseStructure, y: DenseStructure) -> bool:
    m = dict(mapping)
    if x.vocab != y.vocab:
        return False
    if set(m) != set(x.base):
        return False
    if sorted(m.values()) != list(y.base):
        return False
    for d in x.vocab.symbols:
        for args in product(x.base, repeat=d.arity):
            if m[x.value(d.name, args)] != y.value(d.name, tuple(m[a] for a in args)):
                return False
    return True


@dataclass(frozen=True)
class ConventionIssue:
    """One broken logic convention, naming the symbol and a witness tuple."""

    code: str
    symbol: str | None
    witness: tuple[str, ...]
    message: str


def dense_validate_structure(vocab: Vocabulary, x: DenseStructure) -> list[ConventionIssue]:
    """Every logic convention x breaks, read off its full tables; `Structure.make` raises iff one is."""
    issues: list[ConventionIssue] = []
    if x.vocab != vocab:
        issues.append(ConventionIssue("vocabulary", None, (), "structure built over a different vocabulary"))
        return issues
    if not x.base:
        issues.append(ConventionIssue("base", None, (), "base set is empty"))
        return issues
    t, f, u = x.true_el, x.false_el, x.undef_el
    for a, b in ((TRUE, FALSE), (TRUE, UNDEF), (FALSE, UNDEF)):
        if x.value(a) == x.value(b):
            issues.append(
                ConventionIssue("distinctness", a, (), f"{a} and {b} denote the same element {x.value(a)!r}")
            )
    bools = {t, f}
    expected = derived_logic_tables(x.base, t, f, u)
    for d in vocab.symbols:
        if d.relational:
            for args in product(x.base, repeat=d.arity):
                v = x.value(d.name, args)
                if v not in bools:
                    issues.append(
                        ConventionIssue(
                            "relational-range",
                            d.name,
                            args,
                            f"relational symbol {d.name!r} yields non-boolean {v!r} at {args!r}",
                        )
                    )
    for name, code in ((BOOLE, "boole-convention"), (EQ, "equality-convention")):
        for args, want in expected[name].items():
            got = x.value(name, args)
            if got != want:
                issues.append(
                    ConventionIssue(code, name, args, f"{name} at {args!r} is {got!r}, convention requires {want!r}")
                )
    for name in (NOT, AND, OR):
        for args, want in expected[name].items():
            got = x.value(name, args)
            if got != want:
                issues.append(
                    ConventionIssue(
                        "connective-convention",
                        name,
                        args,
                        f"{name} at {args!r} is {got!r}, convention requires {want!r}",
                    )
                )
    return issues


def location_value(x: Structure | DenseStructure, loc: Location) -> str:
    return x.value(loc.symbol, loc.args)


def is_trivial(x: Structure | DenseStructure, u: Update) -> bool:
    """An update is trivial when it assigns the location its current value."""
    return location_value(x, u.location) == u.value


def all_locations(x: Structure | DenseStructure) -> Iterator[Location]:
    """Every location of the structure (dynamic symbols only), in canonical order."""
    for d in x.vocab.dynamic_symbols:
        for args in product(x.base, repeat=d.arity):
            yield Location(d.name, args)


# --- History and script helpers ---------------------------------------------------


class PreconditionViolation(HistoryError):
    """A caller obligation did not hold."""


class CapExceeded(HistoryError):
    """Completion did not converge within the round cap."""

    def __init__(self, cap: int):
        super().__init__(f"pending queries remain after {cap} completion rounds")
        self.cap = cap


def is_initial_segment(eta: History, xi: History) -> bool:
    """True when eta is a down-closed, simultaneity-closed restriction of xi."""
    return eta.length <= xi.length and prefix(xi, eta.length) == eta


def restrict_upto(xi: History, q: Query) -> History:
    """The initial segment of entries at or before q's phase."""
    return prefix(xi, xi.phase_of(q) + 1)


def common_prefix_comparable(xi1: History, xi2: History, xi: History) -> bool:
    """Two initial segments of one history are always comparable; asserts that."""
    if not is_initial_segment(xi1, xi) or not is_initial_segment(xi2, xi):
        raise PreconditionViolation("both arguments must be initial segments of the third")
    return is_initial_segment(xi1, xi2) or is_initial_segment(xi2, xi1)


def complete_history(
    issued_fn: Callable[[History], Iterable[Query]],
    xi: History,
    chooser: Callable[[frozenset[Query]], AnswerFunction],
    cap: int,
) -> History:
    """Extend a coherent history phase by phase until nothing is pending.

    Each round appends the chooser's replies to all currently pending queries
    as one simultaneity class.  Raises CapExceeded when pending queries remain
    after `cap` rounds, which signals an unbounded rule system.
    """
    current = xi
    rounds = 0
    while True:
        missing = frozenset(issued_fn(current)) - current.domain
        if not missing:
            return current
        if rounds >= cap:
            raise CapExceeded(cap)
        batch = dict(chooser(missing))
        if set(batch) != set(missing):
            raise PreconditionViolation("chooser must answer exactly the pending queries")
        current = append_class(current, batch)
        rounds += 1


def format_script(items: Iterable[Batch | Stall]) -> str:
    lines = []
    for item in items:
        if isinstance(item, Stall):
            lines.append("stall")
        else:
            body = " ; ".join(
                f"{format_query(q)} -> {r}" for q, r in sorted(item.items(), key=lambda kv: query_sort_key(kv[0]))
            )
            lines.append("phase { " + body + " }")
    return "\n".join(lines) + ("\n" if lines else "")


def format_iso(isos: Iterable[tuple[dict[str, str], str, str]]) -> str:
    lines = []
    for mapping, name_a, name_b in isos:
        body = " ; ".join(f"{a} -> {b}" for a, b in mapping.items())
        lines.append(f"iso {name_a} {name_b} {{ {body} }}")
    return "\n".join(lines) + ("\n" if lines else "")
