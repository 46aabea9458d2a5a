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
from typing import KeysView, Mapping, NoReturn

from .errors import EngineError


class HistoryError(EngineError):
    """Base class for history-algebra errors."""


class DomainMismatch(HistoryError):
    """Phase assignment keys differ from the answer function's domain."""


class QueryNotInDomain(HistoryError):
    """A restriction pivot query is not answered in the history."""


class OverlappingDomain(HistoryError):
    """An appended batch answers a query the history already answers."""


class EmptyBatch(HistoryError):
    """An appended batch must answer at least one query."""


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

    @cached_property
    def sort_key(self) -> tuple:
        # read by every History's canonical-form check; compute once
        return tuple(component_key(c) for c in self.parts)

    def __repr__(self) -> str:
        return format_query(self)


def query_sort_key(q: Query) -> tuple:
    return q.sort_key


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
        # Canonical form in one pass: phases run 0, 1, ... without a gap, rows
        # strictly increase in (phase, query_sort_key), and no query repeats.
        phase, last = 0, None
        for q, _, p in self.entries:
            key = q.sort_key
            if p == phase + 1 and last is not None:
                phase = p
            elif p != phase or (last is not None and key <= last):
                self._reject()
            last = key
        if len({q for q, _, _ in self.entries}) != len(self.entries):
            self._reject()
        # hashed here, before `answers` and `phase_map` are cached, so that every instance
        # dict has its keys in one order and shares them: a hash set after them made an
        # enumeration's result 925 bytes per history instead of 758
        object.__setattr__(self, "_hash", hash(self.entries))

    def _reject(self) -> NoReturn:
        phases = sorted({p for _, _, p in self.entries})
        if phases != list(range(len(phases))):
            raise HistoryError(f"phase image {phases} is not contiguous from 0; use mk_history")
        raise HistoryError("history rows are not in canonical form; use mk_history")

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        """Number of phase classes."""
        return self.entries[-1][2] + 1 if self.entries else 0

    @property
    def domain(self) -> KeysView[Query]:
        """The answered queries: a read-only view of `answers`' keys, not a copy."""
        return self.answers.keys()

    @cached_property
    def answers(self) -> dict[Query, str]:
        return {q: r for q, r, _ in self.entries}

    @cached_property
    def phase_map(self) -> dict[Query, int]:
        return {q: p for q, _, p in self.entries}

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


def mk_history(answers: AnswerFunction, phase: Mapping[Query, int]) -> History:
    """Build a history, relabeling phases to the canonical contiguous form."""
    if set(answers) != set(phase):
        raise DomainMismatch("phase assignment keys differ from the answered queries")
    ranks = sorted(set(phase.values()))
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


def restrict_before(xi: History, q: Query) -> History:
    """The initial segment of entries strictly earlier than q's phase."""
    return prefix(xi, xi.phase_of(q))


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


def history_sort_key(xi: History) -> tuple:
    return (xi.length, len(xi.entries), format_history(xi))


def format_history(xi: History) -> str:
    if not xi.entries:
        return "{ }"
    body = " ; ".join(f"{format_query(q)} -> {r} @{p}" for q, r, p in xi.entries)
    return "{ " + body + " }"
