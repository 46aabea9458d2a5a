"""Queries, answer functions, and phase-ordered interaction histories.

A history pairs a finite answer function (queries to replies) with a linear
pre-order of its domain.  The pre-order is stored as phase indices: queries
with equal phase were answered simultaneously, lower phases strictly earlier.
Phase images are kept contiguous from 0, which makes class comparisons O(1)
and the canonical form unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import EngineError


class HistoryError(EngineError):
    """Base class for history-algebra errors."""


class NonContiguousPhases(HistoryError):
    """Phase image is not an initial segment of the naturals (normalization off)."""


class DomainMismatch(HistoryError):
    """Phase assignment keys differ from the answer function's domain."""


class QueryNotInDomain(HistoryError):
    """A restriction pivot query is not answered in the history."""


class OverlappingDomain(HistoryError):
    """An appended batch answers a query the history already answers."""


class EmptyBatch(HistoryError):
    """An appended batch must answer at least one query."""


class PreconditionViolation(HistoryError):
    """A caller obligation did not hold."""


class CapExceeded(HistoryError):
    """Completion did not converge within the round cap."""

    def __init__(self, cap: int):
        super().__init__(f"pending queries remain after {cap} completion rounds")
        self.cap = cap


class LiteralSyntaxError(HistoryError):
    """A query or history literal does not follow the literal grammar."""


# --- Queries ----------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    """A query component drawn from the algorithm's label alphabet."""

    name: str


@dataclass(frozen=True)
class Elem:
    """A query component that is an element of the ambient base set."""

    ident: str


Component = Label | Elem


def component_key(c: Component) -> tuple[int, str]:
    if isinstance(c, Label):
        return (0, c.name)
    return (1, c.ident)


@dataclass(frozen=True)
class Query:
    """A finite, nonempty tuple of labels and elements."""

    parts: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise HistoryError("a query must have at least one component")

    def __hash__(self) -> int:
        # hashed on every domain test and issued-set union; compute once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.parts)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return format_query(self)


def query_sort_key(q: Query) -> tuple:
    return tuple(component_key(c) for c in q.parts)


def format_query(q: Query) -> str:
    parts = " ".join(c.name if isinstance(c, Label) else f"#{c.ident}" for c in q.parts)
    return f"({parts})"


AnswerFunction = Mapping[Query, str]


# --- Histories --------------------------------------------------------------


@dataclass(frozen=True)
class History:
    """An answer function plus a linear pre-order, stored as (query, reply, phase) rows."""

    entries: tuple[tuple[Query, str, int], ...] = ()

    def __post_init__(self) -> None:
        phases = sorted({p for _, _, p in self.entries})
        if phases != list(range(len(phases))):
            raise HistoryError(f"phase image {phases} is not contiguous from 0; use mk_history")
        expect = _canonical_entries({q: r for q, r, _ in self.entries}, {q: p for q, r, p in self.entries})
        if self.entries != expect:
            raise HistoryError("history rows are not in canonical form; use mk_history")

    def __hash__(self) -> int:
        # the memo key of every evaluator table; compute once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def length(self) -> int:
        """Number of phase classes."""
        return self.entries[-1][2] + 1 if self.entries else 0

    @cached_property
    def domain(self) -> frozenset[Query]:
        return frozenset(q for q, _, _ in self.entries)

    @cached_property
    def answers(self) -> dict[Query, str]:
        return {q: r for q, r, _ in self.entries}

    @cached_property
    def phase_map(self) -> dict[Query, int]:
        return {q: p for q, _, p in self.entries}

    @cached_property
    def classes(self) -> tuple[tuple[Query, ...], ...]:
        out: list[list[Query]] = [[] for _ in range(self.length)]
        for q, _, p in self.entries:
            out[p].append(q)
        return tuple(tuple(c) for c in out)

    @cached_property
    def reply_range(self) -> frozenset[str]:
        return frozenset(r for _, r, _ in self.entries)

    def reply(self, q: Query) -> str:
        try:
            return self.answers[q]
        except KeyError:
            raise QueryNotInDomain(f"{format_query(q)} is not answered in this history") from None

    def phase_of(self, q: Query) -> int:
        try:
            return self.phase_map[q]
        except KeyError:
            raise QueryNotInDomain(f"{format_query(q)} is not answered in this history") from None

    def __repr__(self) -> str:
        return format_history(self)


def _canonical_entries(
    answers: Mapping[Query, str], phase: Mapping[Query, int]
) -> tuple[tuple[Query, str, int], ...]:
    return tuple(sorted(((q, answers[q], phase[q]) for q in answers), key=lambda row: (row[2], query_sort_key(row[0]))))


EMPTY_HISTORY = History()


def mk_history(answers: AnswerFunction, phase: Mapping[Query, int], *, normalize: bool = True) -> History:
    """Build a history, relabeling phases to the canonical contiguous form.

    With normalize off, a phase image that is not exactly {0..k-1} raises
    NonContiguousPhases instead of being relabeled.
    """
    if set(answers) != set(phase):
        raise DomainMismatch("phase assignment keys differ from the answered queries")
    ranks = sorted(set(phase.values()))
    if not normalize and ranks != list(range(len(ranks))):
        raise NonContiguousPhases(f"phase image {ranks} is not contiguous from 0")
    rank_of = {r: i for i, r in enumerate(ranks)}
    norm = {q: rank_of[p] for q, p in phase.items()}
    return History(_canonical_entries(answers, norm))


# --- Initial-segment algebra --------------------------------------------------


def prefix(xi: History, k: int) -> History:
    """The initial segment consisting of the first k phase classes."""
    if k >= xi.length:
        return xi
    return History(tuple(row for row in xi.entries if row[2] < k))


def initial_segments(xi: History) -> list[History]:
    """All initial segments of a finite history, shortest first (length+1 of them)."""
    return [prefix(xi, k) for k in range(xi.length + 1)]


def is_initial_segment(eta: History, xi: History) -> bool:
    """True when eta is a down-closed, simultaneity-closed restriction of xi."""
    return eta.length <= xi.length and prefix(xi, eta.length) == eta


def restrict_before(xi: History, q: Query) -> History:
    """The initial segment of entries strictly earlier than q's phase."""
    return prefix(xi, xi.phase_of(q))


def restrict_upto(xi: History, q: Query) -> History:
    """The initial segment of entries at or before q's phase."""
    return prefix(xi, xi.phase_of(q) + 1)


def append_class(xi: History, batch: AnswerFunction) -> History:
    """Extend a history by one new simultaneity class at the end."""
    if not batch:
        raise EmptyBatch("cannot append an empty class")
    overlap = set(batch) & xi.domain
    if overlap:
        q = min(overlap, key=query_sort_key)
        raise OverlappingDomain(f"{format_query(q)} is already answered")
    phase = xi.length
    rows = xi.entries + tuple(
        sorted(((q, batch[q], phase) for q in batch), key=lambda row: query_sort_key(row[0]))
    )
    return History(rows)


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


def history_sort_key(xi: History) -> tuple:
    return (xi.length, len(xi.entries), format_history(xi))


# --- Literal syntax -----------------------------------------------------------

_IDENT0 = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT = _IDENT0 | set("0123456789")


def _check_ident(tok: str, what: str, literal: str) -> str:
    if not tok or tok[0] not in _IDENT0 or any(c not in _IDENT for c in tok):
        raise LiteralSyntaxError(f"{tok!r} is not a valid {what} in literal {literal!r}")
    return tok


def parse_query(text: str) -> Query:
    """Parse a query literal like `(offer0)` or `(pair #client0)`."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise LiteralSyntaxError(f"query literal must be parenthesized: {text!r}")
    words = s[1:-1].split()
    if not words:
        raise LiteralSyntaxError(f"query literal has no components: {text!r}")
    parts: list[Component] = []
    for w in words:
        if w.startswith("#"):
            parts.append(Elem(_check_ident(w[1:], "element", text)))
        else:
            parts.append(Label(_check_ident(w, "label", text)))
    return Query(tuple(parts))


def _split_entry(entry: str, literal: str) -> tuple[Query, str, str]:
    if "->" not in entry:
        raise LiteralSyntaxError(f"history entry {entry!r} lacks '->' in {literal!r}")
    qtext, _, rest = entry.partition("->")
    q = parse_query(qtext)
    return q, rest, entry


def parse_history(text: str) -> History:
    """Parse a history literal like `{ (offer0) -> yes @0 ; (offer1) -> no @1 }`."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise LiteralSyntaxError(f"history literal must be braced: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return EMPTY_HISTORY
    answers: dict[Query, str] = {}
    phases: dict[Query, int] = {}
    for entry in body.split(";"):
        q, rest, raw = _split_entry(entry.strip(), text)
        if "@" not in rest:
            raise LiteralSyntaxError(f"history entry {raw!r} lacks '@phase' in {text!r}")
        reply_text, _, phase_text = rest.partition("@")
        reply = _check_ident(reply_text.strip(), "reply", text)
        phase_text = phase_text.strip()
        if not phase_text.isdigit():
            raise LiteralSyntaxError(f"phase {phase_text!r} is not a natural number in {text!r}")
        if q in answers:
            raise LiteralSyntaxError(f"{format_query(q)} appears twice in {text!r}")
        answers[q] = reply
        phases[q] = int(phase_text)
    return mk_history(answers, phases)


def format_history(xi: History) -> str:
    if not xi.entries:
        return "{ }"
    body = " ; ".join(f"{format_query(q)} -> {r} @{p}" for q, r, p in xi.entries)
    return "{ " + body + " }"
