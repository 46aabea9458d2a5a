"""Reference implementations for the tests: brute force and the uncached semantics.

`interstep.analysis.all_bounded_histories` produces *all* phase-partitioned
answer functions over the query universe inside the bounds, and
`brute_force_coherent` keeps the coherent ones.  The oracles here filter them
further by the definitions: no proper final prefix, and the old step-a scan
for a final segment.  They are exponential and exist to cross-check
`enumerate_attainable` and `check_postulates`.  The generators themselves are
re-exported, so that the tests take every brute-force name from this module.

`reference_causes`, `reference_issued`, `reference_verdict` and
`reference_update_set` are the paper's definitions read off the rules
directly, with no memo: every template is instantiated again at each use,
and `issued` is the union of `causes` over all initial segments.  They check
`interstep.model.Evaluator`.

`reference_tokenize` is the character-by-character lexer the regex lexer of
`interstep.dsl` replaced, kept unchanged with its frozen `ReferenceToken`
(it read `str.isdigit`, so it took non-ASCII digits for a numeral; the regex
lexer rejects them).  `reference_parse_spec` runs the parser on its tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from interstep.analysis import (
    EnumerationConfig,
    all_bounded_histories,
    brute_force_coherent,
    equivalent,
    query_universe,
    weak_equivalent,
)
from interstep.dsl import _KEYWORDS, DslSyntaxError, Token, _Parser
from interstep.history import Elem, History, Label, Query, format_history, history_sort_key, initial_segments
from interstep.model import (
    NOT_FINAL,
    SUCCESS,
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
    explicitly_final,
    failed,
    is_coherent,
    pending,
    verdict,
)
from interstep.spans import Span
from interstep.structure import (
    Location,
    Structure,
    Term,
    Update,
    Var,
    detect_clash,
    eval_term,
    format_location,
    term_variables,
)

__all__ = [
    "agreement_property",
    "all_bounded_histories",
    "brute_force_attainable",
    "brute_force_coherent",
    "brute_force_step_a",
    "query_universe",
    "reference_causes",
    "reference_issued",
    "reference_parse_spec",
    "reference_tokenize",
    "reference_update_set",
    "reference_verdict",
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
            return failed(f"rule {rule.name}")
    loc = detect_clash(reference_update_set(spec, x, xi))
    if loc is not None:
        return failed(f"clash at {format_location(loc)}")
    return SUCCESS


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
            # comment to end of line; element markers appear only in history
            # literals, which have their own parser
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
    tokens = [Token(t.kind, t.text, t.span.line, t.span.column, t.span.start, t.span.end) for t in reference_tokenize(text)]
    return _Parser(tokens).parse_spec()
