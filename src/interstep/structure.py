"""Finite first-order vocabularies, structures, terms, locations, and updates.

A structure is an immutable, total interpretation of a finite vocabulary over
a finite base set of opaque element identifiers.  The element order used for
iteration and reporting is the lexicographic one; it carries no semantic
weight.  Every vocabulary contains the logic names (true, false, undef,
Boole, eq, not, and, or) whose interpretations follow fixed conventions.

A structure stores only the entries that differ from their defaults and
derives the others when read.  With t, f and u the elements that true, false
and undef denote: true, false and undef default to the same-named elements;
Boole, eq, not, and, or to the conventions over t and f; every other entry
to f for a relational symbol and to u otherwise.  So no code builds a table
of |base|^arity entries, however large the arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import EngineError

TRUE = "true"
FALSE = "false"
UNDEF = "undef"
BOOLE = "Boole"
EQ = "eq"
NOT = "not"
AND = "and"
OR = "or"

LOGIC_NAMES = (TRUE, FALSE, UNDEF, BOOLE, EQ, NOT, AND, OR)


class StructureError(EngineError):
    """Malformed vocabulary, structure, interpretation entry, or update."""


class UnboundVariable(EngineError):
    """A term variable has no entry in the evaluation valuation."""


class ArityMismatch(EngineError):
    """A symbol was applied to the wrong number of arguments."""


class ClashError(EngineError):
    """Two updates assign different values to the same location."""

    def __init__(self, location: Location):
        super().__init__(f"clashing updates at {format_location(location)}")
        self.location = location


@dataclass(frozen=True)
class SymbolDecl:
    """A function symbol with its arity and static/relational markings."""

    name: str
    arity: int
    static: bool = False
    relational: bool = False


def _logic_decls() -> tuple[SymbolDecl, ...]:
    return (
        SymbolDecl(BOOLE, 1, static=True, relational=True),
        SymbolDecl(AND, 2, static=True, relational=True),
        SymbolDecl(EQ, 2, static=True, relational=True),
        SymbolDecl(FALSE, 0, static=True, relational=True),
        SymbolDecl(NOT, 1, static=True, relational=True),
        SymbolDecl(OR, 2, static=True, relational=True),
        SymbolDecl(TRUE, 0, static=True, relational=True),
        SymbolDecl(UNDEF, 0, static=True, relational=False),
    )


@dataclass(frozen=True)
class Vocabulary:
    """A finite signature; always contains the logic names."""

    symbols: tuple[SymbolDecl, ...]

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.symbols)
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(decls: Iterable[SymbolDecl] = ()) -> Vocabulary:
        table: dict[str, SymbolDecl] = {d.name: d for d in _logic_decls()}
        for d in decls:
            if d.name in table:
                if d.name in LOGIC_NAMES:
                    raise StructureError(f"symbol {d.name!r} is a reserved logic name")
                raise StructureError(f"symbol {d.name!r} declared twice")
            if d.arity < 0:
                raise StructureError(f"symbol {d.name!r} has negative arity")
            table[d.name] = d
        return Vocabulary(tuple(sorted(table.values(), key=lambda d: d.name)))

    @cached_property
    def _by_name(self) -> dict[str, SymbolDecl]:
        return {d.name: d for d in self.symbols}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def decl(self, name: str) -> SymbolDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise StructureError(f"unknown symbol {name!r}") from None

    def arity(self, name: str) -> int:
        return self.decl(name).arity

    @property
    def user_symbols(self) -> tuple[SymbolDecl, ...]:
        return tuple(d for d in self.symbols if d.name not in LOGIC_NAMES)

    @property
    def dynamic_symbols(self) -> tuple[SymbolDecl, ...]:
        return tuple(d for d in self.symbols if not d.static)


# --- Terms ------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A term variable, bound by an external valuation."""

    name: str


@dataclass(frozen=True)
class ReplyVar:
    """A variable naming the reply received by a query-template instance."""

    name: str


@dataclass(frozen=True)
class App:
    """Application of a vocabulary symbol to argument terms."""

    symbol: str
    args: tuple["Term", ...] = ()


Term = Var | ReplyVar | App


def term_variables(term: Term) -> Iterator[Var | ReplyVar]:
    """Yield every variable node of a term, left to right."""
    if isinstance(term, App):
        for a in term.args:
            yield from term_variables(a)
    else:
        yield term


def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return f"${term.name}"
    if isinstance(term, ReplyVar):
        return f"reply({term.name})"
    inner = ", ".join(format_term(a) for a in term.args)
    return f"{term.symbol}({inner})"


# --- Structures -------------------------------------------------------------

Interp = Mapping[str, Mapping[tuple[str, ...], str]]


@dataclass(frozen=True)
class Structure:
    """An immutable total interpretation of a vocabulary over a finite base.

    `base` is sorted.  `tables` lists, per symbol in name order, only the
    entries (argument tuple, value) that differ from their defaults, sorted
    by arguments; a symbol with none is left out.  `value` derives every
    other entry.  Build structures with `Structure.make`, which puts them in
    this canonical form, so `==` and `hash` mean "interprets every symbol
    alike".
    """

    vocab: Vocabulary
    base: tuple[str, ...]
    tables: tuple[tuple[str, tuple[tuple[tuple[str, ...], str], ...]], ...]

    def __hash__(self) -> int:
        # hashed on every memoized semantic call; compute once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.vocab, self.base, self.tables))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(vocab: Vocabulary, base: Iterable[str], interp: Interp | None = None) -> Structure:
        """Build a structure from explicit entries; every unlisted entry takes its default.

        Explicit entries override anything, including the logic conventions,
        so deliberately non-conforming structures can be built and then
        caught by validate_structure.
        """
        elems = frozenset(base)
        if not elems:
            raise StructureError("base set must be nonempty")
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
                    if e not in elems:
                        raise StructureError(f"element {e!r} in entry for {fname!r} is not in the base set")
                given.setdefault(fname, {})[args] = value
        return _canonical(vocab, tuple(sorted(elems)), given)

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
        listed = self._lookup.get(symbol)
        if listed is not None and args in listed:
            return listed[args]
        missing = [e for e in args if e not in self.elements]
        if missing:
            raise StructureError(f"arguments {missing!r} to {symbol!r} are not in the base set")
        return _default(symbol, args, decl.relational, self.true_el, self.false_el, self.undef_el)

    @cached_property
    def true_el(self) -> str:
        return self._lookup.get(TRUE, {}).get((), TRUE)

    @cached_property
    def false_el(self) -> str:
        return self._lookup.get(FALSE, {}).get((), FALSE)

    @cached_property
    def undef_el(self) -> str:
        return self._lookup.get(UNDEF, {}).get((), UNDEF)

    def __repr__(self) -> str:
        return f"Structure(base={list(self.base)!r}, symbols={len(self.vocab.symbols)})"


# Boole and the classical connectives at arguments in {t, f}; at any other argument they give f.
_CONNECTIVES = {
    BOOLE: lambda t, a: True,
    NOT: lambda t, a: a != t,
    AND: lambda t, a, b: a == t and b == t,
    OR: lambda t, a, b: a == t or b == t,
}


def _default(symbol: str, args: tuple[str, ...], relational: bool, t: str, f: str, u: str) -> str:
    """The value of an entry that a structure with designated elements t, f, u does not list."""
    if symbol in (TRUE, FALSE, UNDEF):
        return symbol
    if symbol == EQ:
        return t if args[0] == args[1] else f
    rule = _CONNECTIVES.get(symbol)
    if rule is not None:
        return t if all(a == t or a == f for a in args) and rule(t, *args) else f
    return f if relational else u


def _canonical(vocab: Vocabulary, base: tuple[str, ...], interp: Interp) -> Structure:
    """The structure over a sorted base that gives interp's entries and the defaults elsewhere.

    Every structure is built here: an entry equal to its default is dropped,
    so equal interpretations get equal fields.  The caller has checked the
    entries against the vocabulary and the base.
    """

    def designated(name: str) -> str:
        value = interp.get(name, {}).get(())
        if value is not None:
            return value
        if name in base:
            return name
        raise StructureError(f"no interpretation for {name!r} and no same-named base element")

    t, f, u = designated(TRUE), designated(FALSE), designated(UNDEF)
    tables = []
    for name in sorted(interp):
        relational = vocab.decl(name).relational
        kept = tuple(
            sorted((args, v) for args, v in interp[name].items() if v != _default(name, args, relational, t, f, u))
        )
        if kept:
            tables.append((name, kept))
    return Structure(vocab, base, tuple(tables))


# --- Validation -------------------------------------------------------------


@dataclass(frozen=True)
class StructureIssue:
    """One violated structure convention, naming the symbol and a witness tuple."""

    code: str
    symbol: str | None
    witness: tuple[str, ...]
    message: str


_CONVENTION_CODES = {
    BOOLE: "boole-convention",
    EQ: "equality-convention",
    NOT: "connective-convention",
    AND: "connective-convention",
    OR: "connective-convention",
}


def validate_structure(vocab: Vocabulary, x: Structure) -> list[StructureIssue]:
    """Check every structure convention; an empty list means all hold.

    A default entry keeps every convention, so only listed entries are read.
    """
    issues: list[StructureIssue] = []
    if x.vocab != vocab:
        issues.append(StructureIssue("vocabulary", None, (), "structure built over a different vocabulary"))
        return issues
    if not x.base:
        issues.append(StructureIssue("base", None, (), "base set is empty"))
        return issues
    t, f, u = x.true_el, x.false_el, x.undef_el
    for a, b in ((TRUE, FALSE), (TRUE, UNDEF), (FALSE, UNDEF)):
        if x.value(a) == x.value(b):
            issues.append(
                StructureIssue("distinctness", a, (), f"{a} and {b} denote the same element {x.value(a)!r}")
            )
    bools = {t, f}
    for name, entries in x.tables:
        if vocab.decl(name).relational:
            for args, v in entries:
                if v not in bools:
                    issues.append(
                        StructureIssue(
                            "relational-range",
                            name,
                            args,
                            f"relational symbol {name!r} yields non-boolean {v!r} at {args!r}",
                        )
                    )
    listed = dict(x.tables)
    for name, code in _CONVENTION_CODES.items():
        for args, got in listed.get(name, ()):
            want = _default(name, args, True, t, f, u)
            issues.append(StructureIssue(code, name, args, f"{name} at {args!r} is {got!r}, convention requires {want!r}"))
    return issues


# --- Term evaluation --------------------------------------------------------


def eval_term(x: Structure, term: Term, valuation: Mapping[str, str] | None = None) -> str:
    """Evaluate a term bottom-up under the structure's interpretations."""
    val = valuation or {}
    if isinstance(term, App):
        args = tuple(eval_term(x, a, val) for a in term.args)
        return x.value(term.symbol, args)
    name = term.name
    if name not in val:
        raise UnboundVariable(f"unbound variable {format_term(term)}")
    v = val[name]
    if v not in x.elements:
        raise StructureError(f"valuation maps {name!r} to {v!r}, which is not in the base set")
    return v


# --- Locations and updates --------------------------------------------------


@dataclass(frozen=True)
class Location:
    """A dynamic function symbol together with an argument tuple of elements."""

    symbol: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Update:
    """An assignment of a new value to a location."""

    location: Location
    value: str


def update(symbol: str, args: Iterable[str], value: str) -> Update:
    return Update(Location(symbol, tuple(args)), value)


def format_location(loc: Location) -> str:
    return f"{loc.symbol}({' '.join(loc.args)})"


def format_update(u: Update) -> str:
    return f"{format_location(u.location)} := {u.value}"


def update_sort_key(u: Update) -> tuple:
    return (u.location.symbol, u.location.args, u.value)


def detect_clash(updates: Iterable[Update]) -> Location | None:
    """Return the first (in canonical update order) location assigned two values."""
    ordered = sorted(set(updates), key=update_sort_key)
    # sorted, a location's distinct updates are adjacent and differ in value
    for a, b in zip(ordered, ordered[1:]):
        if a.location == b.location:
            return a.location
    return None


def _check_update(x: Structure, u: Update) -> None:
    decl = x.vocab.decl(u.location.symbol)
    if decl.static:
        raise StructureError(f"update target {u.location.symbol!r} is static")
    if len(u.location.args) != decl.arity:
        raise ArityMismatch(
            f"location {format_location(u.location)} has {len(u.location.args)} arguments, arity is {decl.arity}"
        )
    for e in (*u.location.args, u.value):
        if e not in x.elements:
            raise StructureError(f"update {format_update(u)} mentions {e!r}, which is not in the base set")


def apply_updates(x: Structure, updates: Iterable[Update]) -> Structure:
    """Apply a clash-free update set, returning a fresh structure on the same base.

    An update back to a location's default removes its entry.
    """
    ups = frozenset(updates)
    for u in ups:
        _check_update(x, u)
    loc = detect_clash(ups)
    if loc is not None:
        raise ClashError(loc)
    if not ups:
        return x
    interp = {name: dict(entries) for name, entries in x.tables}
    for u in ups:
        interp.setdefault(u.location.symbol, {})[u.location.args] = u.value
    return _canonical(x.vocab, x.base, interp)


# --- Text forms -------------------------------------------------------------


def canonical_interp_entries(x: Structure) -> list[tuple[str, tuple[str, ...], str]]:
    """Interpretation entries that differ from their defaults, sorted: the stored ones."""
    return [(name, args, value) for name, entries in x.tables for args, value in entries]


def format_symbol_decl(d: SymbolDecl) -> str:
    flags = "static" if d.static else "dynamic"
    if d.relational:
        flags += " relational"
    return f"{flags} {d.name}/{d.arity}"


def format_structure(x: Structure) -> str:
    """Canonical line-oriented text form of a structure (with its vocabulary)."""
    lines = ["base " + " ".join(x.base)]
    for d in x.vocab.user_symbols:
        lines.append(format_symbol_decl(d))
    for name, args, value in canonical_interp_entries(x):
        lines.append(f"interp {name} ({' '.join(args)}) = {value}")
    return "\n".join(lines) + "\n"
