"""Finite first-order vocabularies, structures, terms, locations, and updates.

A structure is an immutable, total interpretation of a finite vocabulary over
a finite base set of opaque element identifiers.  The element order used for
iteration and reporting is the lexicographic one; it carries no semantic
weight.  Every vocabulary contains the logic names (true, false, undef,
Boole, eq, not, and, or) whose interpretations follow fixed conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
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
    """An immutable total interpretation of a vocabulary over a finite base."""

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
        """Build a structure, deriving logic tables and defaulting unlisted entries.

        Logic constants default to the same-named base elements; Boole, eq
        and the connectives are derived from them per the conventions.
        Unlisted entries of other symbols default to false (relational
        symbols) or undef.  Explicit entries override anything, including
        derived logic tables, so deliberately non-conforming structures can
        be built and then caught by validate_structure.
        """
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
        tables = _derived_logic_tables(elems, t, f, u)
        for d in vocab.symbols:
            tab = tables.get(d.name)
            if tab is None:
                default = f if d.relational else u
                tab = {args: default for args in product(elems, repeat=d.arity)}
                tables[d.name] = tab
            tab.update(given.get(d.name, {}))
        frozen = tuple(
            (name, tuple(sorted(tab.items()))) for name, tab in sorted(tables.items())
        )
        return Structure(vocab, elems, frozen)

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

    def __repr__(self) -> str:
        return f"Structure(base={list(self.base)!r}, symbols={len(self.tables)})"


def _derived_logic_tables(elems: tuple[str, ...], t: str, f: str, u: str) -> dict[str, dict[tuple[str, ...], str]]:
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


# --- Validation -------------------------------------------------------------


@dataclass(frozen=True)
class StructureIssue:
    """One violated structure convention, naming the symbol and a witness tuple."""

    code: str
    symbol: str | None
    witness: tuple[str, ...]
    message: str


def validate_structure(vocab: Vocabulary, x: Structure) -> list[StructureIssue]:
    """Check every structure convention; an empty list means all hold."""
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
    expected = _derived_logic_tables(x.base, t, f, u)
    for d in vocab.symbols:
        if d.relational:
            for args in product(x.base, repeat=d.arity):
                v = x.value(d.name, args)
                if v not in bools:
                    issues.append(
                        StructureIssue(
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
                    StructureIssue(code, name, args, f"{name} at {args!r} is {got!r}, convention requires {want!r}")
                )
    for name in (NOT, AND, OR):
        for args, want in expected[name].items():
            got = x.value(name, args)
            if got != want:
                issues.append(
                    StructureIssue(
                        "connective-convention",
                        name,
                        args,
                        f"{name} at {args!r} is {got!r}, convention requires {want!r}",
                    )
                )
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


def location_value(x: Structure, loc: Location) -> str:
    return x.value(loc.symbol, loc.args)


def is_trivial(x: Structure, u: Update) -> bool:
    """An update is trivial when it assigns the location its current value."""
    return location_value(x, u.location) == u.value


def all_locations(x: Structure) -> Iterator[Location]:
    """Every location of the structure (dynamic symbols only), in canonical order."""
    for d in x.vocab.dynamic_symbols:
        for args in product(x.base, repeat=d.arity):
            yield Location(d.name, args)


def detect_clash(updates: Iterable[Update]) -> Location | None:
    """Return the first (in canonical update order) location assigned two values."""
    ordered = sorted(set(updates), key=update_sort_key)
    values: dict[Location, set[str]] = {}
    for u in ordered:
        values.setdefault(u.location, set()).add(u.value)
    for u in ordered:
        if len(values[u.location]) > 1:
            return u.location
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
    """Apply a clash-free update set, returning a fresh structure on the same base."""
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
    frozen = tuple((name, tuple(sorted(tab.items()))) for name, tab in sorted(new_tables.items()))
    return Structure(x.vocab, x.base, frozen)


# --- Structure file format --------------------------------------------------


def canonical_interp_entries(x: Structure) -> list[tuple[str, tuple[str, ...], str]]:
    """Interpretation entries that differ from the derivable defaults, sorted."""
    t, f, u = x.true_el, x.false_el, x.undef_el
    expected = _derived_logic_tables(x.base, t, f, u)
    for name in (TRUE, FALSE, UNDEF):
        # designated constants default to the same-named element
        expected[name] = {(): name}
    out: list[tuple[str, tuple[str, ...], str]] = []
    for name, entries in x.tables:
        decl = x.vocab.decl(name)
        exp = expected.get(name)
        for args, value in entries:
            if exp is not None:
                want = exp.get(args)
            else:
                want = f if decl.relational else u
            if value != want:
                out.append((name, args, value))
    out.sort()
    return out


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


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _ident(tok: str, lineno: int) -> str:
    if not tok or tok[0].isdigit() or any(c not in _IDENT_OK for c in tok):
        raise StructureError(f"line {lineno}: {tok!r} is not a valid identifier")
    return tok


def parse_structure(text: str) -> Structure:
    """Parse the line-oriented structure format produced by format_structure."""
    base: tuple[str, ...] | None = None
    decls: list[SymbolDecl] = []
    raw_entries: list[tuple[int, str, tuple[str, ...], str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "base":
            if base is not None:
                raise StructureError(f"line {lineno}: duplicate base line")
            if len(words) < 2:
                raise StructureError(f"line {lineno}: base line lists no elements")
            base = tuple(_ident(w, lineno) for w in words[1:])
        elif words[0] in ("static", "dynamic", "relational"):
            static = words[0] == "static"
            relational = words[0] == "relational"
            rest = words[1:]
            if rest and rest[0] == "relational":
                relational = True
                rest = rest[1:]
            if len(rest) != 1 or "/" not in rest[0]:
                raise StructureError(f"line {lineno}: expected 'name/arity' in symbol declaration")
            name, _, arity_text = rest[0].partition("/")
            if not (arity_text.isascii() and arity_text.isdigit()):
                raise StructureError(f"line {lineno}: arity {arity_text!r} is not a natural number")
            decls.append(SymbolDecl(_ident(name, lineno), int(arity_text), static=static, relational=relational))
        elif words[0] == "interp":
            lp, rp = line.find("("), line.find(")")
            if lp < 0 or rp < lp or "=" not in line[rp:]:
                raise StructureError(f"line {lineno}: expected 'interp f (args) = value'")
            name = _ident(line[len("interp"):lp].strip(), lineno)
            args = tuple(_ident(w, lineno) for w in line[lp + 1 : rp].split())
            value = _ident(line[rp + 1 :].split("=", 1)[1].strip(), lineno)
            raw_entries.append((lineno, name, args, value))
        else:
            raise StructureError(f"line {lineno}: unrecognized directive {words[0]!r}")
    if base is None:
        raise StructureError("structure text has no base line")
    vocab = Vocabulary.make(decls)
    interp: dict[str, dict[tuple[str, ...], str]] = {}
    for lineno, name, args, value in raw_entries:
        if name not in vocab:
            raise StructureError(f"line {lineno}: unknown symbol {name!r}")
        interp.setdefault(name, {})[args] = value
    return Structure.make(vocab, base, interp)
