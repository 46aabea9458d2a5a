"""Base-set bijections and their canonical action on engine values.

An isomorphism between structures acts elementwise on everything built from
base elements: structures, queries, histories, locations, and update sets.
Labels are fixed pointwise and the phase assignment of a history is carried
over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import EngineError
from .history import Elem, History, Label, Query, mk_history
from .structure import FALSE, TRUE, UNDEF, Location, Structure, Update, _canonical


class ElementNotInDomain(EngineError):
    """The mapping does not cover an element of the object being transported."""


@dataclass(frozen=True)
class Isomorphism:
    """A finite element bijection, stored as sorted pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        source: dict[str, str] = {}
        for a, b in self.pairs:
            if source.setdefault(b, a) != a:
                raise EngineError(f"elements {source[b]!r} and {a!r} both map to {b!r}")

    @staticmethod
    def of(mapping: Mapping[str, str]) -> Isomorphism:
        return Isomorphism(tuple(sorted(mapping.items())))

    @staticmethod
    def identity(x: Structure) -> Isomorphism:
        return Isomorphism.of({e: e for e in x.base})

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.pairs)

    def map_element(self, e: str) -> str:
        try:
            return self._map[e]
        except KeyError:
            raise ElementNotInDomain(f"element {e!r} is outside the mapping's domain") from None

    def map_tuple(self, elems: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(self.map_element(e) for e in elems)


def check_isomorphism(mapping: Mapping[str, str] | Isomorphism, x: Structure, y: Structure) -> bool:
    """True iff the mapping is a base bijection commuting with every interpretation."""
    m = dict(mapping.pairs) if isinstance(mapping, Isomorphism) else dict(mapping)
    if x.vocab != y.vocab:
        return False
    if set(m) != set(x.base):
        return False
    if sorted(m.values()) != list(y.base):
        return False
    return _on_structure(Isomorphism.of(m), x) == y


def _on_structure(iso: Isomorphism, x: Structure) -> Structure:
    interp = {name: {iso.map_tuple(args): iso.map_element(v) for args, v in entries} for name, entries in x.tables}
    # every default but the designated constants' commutes with a bijection
    for name in (TRUE, FALSE, UNDEF):
        interp.setdefault(name, {(): iso.map_element(x.value(name))})
    return _canonical(x.vocab, tuple(sorted(iso.map_element(e) for e in x.base)), interp)


def _on_query(iso: Isomorphism, q: Query) -> Query:
    return Query(tuple(c if isinstance(c, Label) else Elem(iso.map_element(c.ident)) for c in q.parts))


def _on_history(iso: Isomorphism, xi: History) -> History:
    answers = {_on_query(iso, q): iso.map_element(r) for q, r, _ in xi.entries}
    phases = {_on_query(iso, q): p for q, _, p in xi.entries}
    return mk_history(answers, phases)


def _on_location(iso: Isomorphism, loc: Location) -> Location:
    return Location(loc.symbol, iso.map_tuple(loc.args))


def _on_update(iso: Isomorphism, u: Update) -> Update:
    return Update(_on_location(iso, u.location), iso.map_element(u.value))


def apply_isomorphism(iso: Isomorphism, obj):
    """Transport a structure, query, history, location, update, or set thereof."""
    if isinstance(obj, Structure):
        return _on_structure(iso, obj)
    if isinstance(obj, Query):
        return _on_query(iso, obj)
    if isinstance(obj, History):
        return _on_history(iso, obj)
    if isinstance(obj, Update):
        return _on_update(iso, obj)
    if isinstance(obj, Location):
        return _on_location(iso, obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset(apply_isomorphism(iso, item) for item in obj)
    raise EngineError(f"cannot apply an isomorphism to {type(obj).__name__}")
