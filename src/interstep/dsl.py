"""Textual language for machine descriptions: parser, printer, validation.

Grammar (canonical section order; `#` comments run to end of line):

    spec       := "algorithm" NAME vocab labels states queries rules bounds witness
    vocab      := "vocabulary" "{" symdecl* "}"
    symdecl    := ("static" | "dynamic") ["relational"] NAME "/" NAT
                | "relational" NAME "/" NAT                    # dynamic relational
    labels     := "labels" "{" NAME* "}"
    states     := stateblock+ "initial" NAME+
    stateblock := "state" NAME "{" "base" NAME+ interpline* "}"
    interpline := "interp" NAME "(" NAME* ")" "=" NAME
    queries    := ("query" NAME "=" qtuple)*
    qtuple     := "(" component+ ")"                            # space separated
    component  := LABEL | term
    rules      := rule*
    rule       := "issue" NAME ":" "when" guard "emit" qtuple
                | "final" NAME ":" "when" guard ("succeed" | "fail")
                | "update" NAME ":" "when" guard NAME "(" [term ("," term)*] ")" ":=" term
    guard      := guard "or" guard | guard "and" guard | "not" guard | "(" guard ")" | atom
    atom       := "start" | "answered" "(" QNAME ")" | "unanswered" "(" QNAME ")"
                | "reply" "(" QNAME ")" "=" term
                | "before" "(" QNAME "," QNAME ")" | "simultaneous" "(" QNAME "," QNAME ")"
                | term "=" term
    term       := "reply" "(" QNAME ")"                         # not in witness terms
                | "$" NAME                                      # only in witness terms
                | NAME "(" [term ("," term)*] ")" | NAME        # bare NAME: nullary symbol
    bounds     := "bounds" "{" "max_query_len" NAT "max_issued" NAT "}"   # each NAT at least 1
    witness    := "witness" "{" [term (";" term)*] "}"

Rule names are unique, and an update rule's symbol is dynamic.  A query
template reads the replies of earlier templates only, so reply references
are acyclic.  A state's `interp` lines keep the logic conventions (see
`interstep.structure`): an entry of Boole or eq may only restate its fixed
value.

Query and history literals, scripts and iso files share the lexer and the
parser.  WORD is a NAME or a keyword.  Inside a query's parentheses `#`
glued to a WORD marks an element; elsewhere, as anywhere in a spec, `#`
starts a comment.  A query is answered, and an element mapped, at most
once; an iso maps unlisted elements to themselves.

    query      := "(" (WORD | "#" WORD)+ ")"
    history    := "{" [answer "@" NAT (";" answer "@" NAT)*] "}"
    answer     := query "->" WORD                               # the reply
    script     := ("phase" "{" answer (";" answer)* "}" | "stall")*
    isofile    := ("iso" NAME NAME "{" [WORD "->" WORD (";" WORD "->" WORD)*] "}")*

Precedence is not > and > or, left-associative.  `start` holds exactly of the
empty history.  `not`, `and`, `or` are reserved in guard position, so terms
in source cannot apply the logic connectives (build such terms via the API;
`Boole` and `eq` remain spellable).  `reply(q) = t`
always parses as the reply-comparison atom.  `not`, parenthesized guards and
term arguments nest at most MAX_NESTING deep, and each `and`/`or` of a chain
counts as one more level.

Lexer: tokens are ASCII.  NAME is `[A-Za-z_][A-Za-z0-9_]*` and NAT is `[0-9]+`:
numerals are ASCII digits only, so `²` or `٣` is an unexpected character, and a
word with non-ASCII letters or digits is rejected whole; only comments hold other
characters.  One regex, run by `split`, matches each token, comment and stray
character, into parallel lists of kinds, texts and character offsets that the
parser reads by index.  Spans are built for AST nodes and errors only, by `bisect`
over the newline offsets.  Outside specs, `#name` in a query's parentheses is a word.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from string import ascii_letters
from typing import Callable, NamedTuple, TypeVar

from .errors import EngineError
from .history import Elem, History, Label, Query, format_query, mk_history
from .model import (
    AlgorithmSpec,
    And,
    Answered,
    Before,
    Bounds,
    FinalRule,
    Guard,
    IssueRule,
    Not,
    Or,
    QueryTemplate,
    ReplyEq,
    Simultaneous,
    Start,
    StateDef,
    TermEq,
    Unanswered,
    UpdateRule,
    WitnessDecl,
)
from .spans import Span
from .structure import (
    LOGIC_NAMES,
    App,
    ReplyVar,
    Structure,
    SymbolDecl,
    Term,
    Var,
    Vocabulary,
    canonical_interp_entries,
    eval_term,
    format_symbol_decl,
    format_term,
    term_variables,
)


T = TypeVar("T")


class DslError(EngineError):
    """Base class for source-text errors; always carries a span."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class DslSyntaxError(DslError):
    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message, span)
        self.expected = expected


class DslNameError(DslError):
    """An undeclared label, query template, symbol, or state was referenced."""


class DslArityError(DslError):
    """A symbol was applied to the wrong number of arguments."""


# --- Lexer ---------------------------------------------------------------------

_KEYWORDS = {
    "algorithm", "vocabulary", "labels", "state", "base", "interp", "initial",
    "query", "issue", "final", "update", "when", "emit", "succeed", "fail",
    "start", "not", "and", "or", "answered", "unanswered", "reply", "before",
    "simultaneous", "bounds", "witness", "static", "dynamic", "relational",
}

# Each match is a token, a `#` comment or one stray character, so that only
# blanks fall between matches and `split` cuts the text into blanks and matches.
_TOKEN = re.compile(r"(->|:=|[{}():;,=/@$]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|#[^\n]*|[^ \t\r\n])")
# A match's kind: its text for a keyword or punctuation, else by its first
# character; "#" marks a comment, and a stray character has none.
_KINDS = {word: word for word in (*_KEYWORDS, "->", ":=", *"{}():;,=/@$")}
_FIRST = {**dict.fromkeys("0123456789", "NAT"), **dict.fromkeys(ascii_letters + "_", "IDENT"), "#": "#"}
_NEWLINE = re.compile(r"\n")
_NON_ASCII = re.compile(r"[^\x00-\x7f]+")

SpanFn = Callable[[int, int], Span]


class Token(NamedTuple):
    """A token as `tokenize` shows it; the parser reads the lexer's lists instead."""

    kind: str  # keyword text, punct text, "IDENT", "NAT", "EOF"
    text: str
    span: Span


def tokenize(text: str, elements: bool = False) -> list[Token]:
    """Split text into tokens, each with its span, the last EOF; for `elements` see `_lex`."""
    kinds, texts, span = _lex(text, elements)
    return [Token(kind, word, span(i, i)) for i, (kind, word) in enumerate(zip(kinds, texts))]


def _lex(text: str, elements: bool = False) -> tuple[list[str], list[str], SpanFn]:
    """The kinds and texts of text's tokens, the last EOF, and `span(i, j)` from token i to token j.

    A token's character offset is the length of the pieces before it.  With
    `elements`, for the texts that hold query literals, a comment inside
    parentheses is an element `#name`, after which the text is cut anew.
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []  # character offsets
    pos, inside = 0, False  # where the text is cut; whether in a query's parentheses
    while True:
        parts = _TOKEN.split(text[pos:] if pos else text)
        words = parts[1::2]
        offsets = list(accumulate(map(len, parts), initial=pos))[1::2]  # each word's start, then the text's end
        found = [_KINDS.get(word) or _FIRST.get(word[0], "") for word in words]
        if not elements and "" not in found:
            if "#" in found:
                keep = [kind != "#" for kind in found]
                found, words, offsets = [*compress(found, keep)], [*compress(words, keep)], [*compress(offsets, keep), offsets[-1]]
            kinds, texts, starts = found, words, offsets
            break
        cut = None
        for kind, word, at in zip(found, words, offsets):
            if kind == "#":
                if not inside:
                    continue
                if _FIRST.get(text[at + 1 : at + 2]) != "IDENT":
                    raise _stray(text, at, None)
                kind, cut = "IDENT", _TOKEN.match(text, at + 1).end()
                word = text[at:cut]
            elif not kind:
                glued = kinds and (kinds[-1] == "IDENT" or kinds[-1] in _KEYWORDS) and starts[-1] + len(texts[-1]) == at
                raise _stray(text, at, starts[-1] if glued else None)
            kinds.append(kind)
            texts.append(word)
            starts.append(at)
            if cut is not None:
                break
            if elements and (kind == "(" or kind == ")"):
                inside = kind == "("
        if cut is None:
            starts.append(len(text))
            break
        pos = cut
    kinds.append("EOF")
    texts.append("")
    breaks, byte = _positions(text)

    def span(first: int, last: int) -> Span:
        start = starts[first]
        line = bisect_left(breaks, start)
        return Span(line, start - breaks[line - 1], byte(start), byte(starts[last] + len(texts[last])))

    return kinds, texts, span


def _positions(text: str) -> tuple[list[int], Callable[[int], int]]:
    """-1 and text's newline offsets (offset i is on line `bisect_left(breaks, i)`), and a function from
    character to byte offsets: tokens are ASCII, so only the non-ASCII runs of comments shift the count."""
    breaks = [-1, *[m.start() for m in _NEWLINE.finditer(text)]]
    if text.isascii():
        return breaks, int  # the offset itself
    ends, extra = [0], [0]  # each run's end, and the extra bytes up to it
    for m in _NON_ASCII.finditer(text):
        ends.append(m.end())
        extra.append(extra[-1] + len(m[0].encode("utf-8")) - len(m[0]))
    return breaks, lambda i: i + extra[bisect_right(ends, i) - 1]


def _stray(text: str, i: int, word: int | None) -> DslSyntaxError:
    """The error at text[i], where no token starts: a word with non-ASCII characters, rejected whole, if a letter
    is there or a letter or digit continues the word that starts at `word`; else an unexpected character."""
    ch = text[i]
    start = word if word is not None and ch.isalnum() else i if ch.isalpha() else None
    bad, message = ch, f"unexpected character {ch!r}"
    if start is not None:
        i, j = start, start + 1
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        bad = text[i:j]
        message = f"identifier {bad!r} contains non-ASCII characters"
    breaks, byte = _positions(text)
    line = bisect_left(breaks, i)
    return DslSyntaxError(message, Span(line, i - breaks[line - 1], byte(i), byte(i) + len(bad.encode("utf-8"))))


# --- Parser ---------------------------------------------------------------------

MAX_NESTING = 100


class _Parser:
    """Reads the lexer's lists; a token is its index, and `pos` never passes the final EOF."""

    def __init__(self, kinds: list[str], texts: list[str], span: SpanFn):
        self.kinds = kinds
        self.texts = texts
        self.span = span  # span(i, j): from token i's start to token j's end
        self.pos = 0
        self.labels: set[str] = set()
        self.vocab: Vocabulary | None = None
        self.template_names: set[str] = set()
        self.template: str | None = None  # the query template being parsed
        self.decl_spans: dict[str, Span] = {}
        self.depth = 0
        self.in_witness = False  # whether terms take `$NAME` rather than `reply(QNAME)`

    # token plumbing

    def advance(self) -> int:
        i = self.pos
        if self.kinds[i] != "EOF":
            self.pos = i + 1
        return i

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def accept(self, kind: str) -> int | None:
        i = self.pos
        if self.kinds[i] == kind:
            self.pos = i + 1
            return i
        return None

    def expect(self, *kinds: str) -> int:
        i = self.pos
        kind = self.kinds[i]
        if kind in kinds:
            if kind != "EOF":
                self.pos = i + 1
            return i
        shown = self.texts[i] if kind != "EOF" else "end of input"
        raise DslSyntaxError(f"expected {' or '.join(kinds)}, found {shown!r}", self.span(i, i), expected=kinds)

    def ident(self, what: str = "identifier") -> int:
        i = self.pos
        if self.kinds[i] == "IDENT":
            self.pos = i + 1
            return i
        raise DslSyntaxError(f"expected {what}, found {self.texts[i]!r}", self.span(i, i), expected=("IDENT",))

    def nest(self, i: int) -> None:
        """Enter one more level of guard or term nesting, opened by token i."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.span(i, i))

    def span_from(self, first: int) -> Span:
        """The span from token first to the last token consumed."""
        return self.span(first, self.pos - 1 if self.pos else first)

    def nat(self) -> int:
        i = self.expect("NAT")
        try:
            return int(self.texts[i])
        except ValueError:  # more digits than int() converts
            raise DslSyntaxError(f"numeral of {len(self.texts[i])} digits is too large", self.span(i, i)) from None

    # sections

    def parse_spec(self) -> AlgorithmSpec:
        self.expect("algorithm")
        name = self.texts[self.ident("algorithm name")]
        vocab = self.parse_vocabulary()
        self.vocab = vocab
        labels = self.parse_labels()
        states = self.parse_states()
        initial = self.parse_initial({s.name for s in states})
        templates = self.parse_queries()
        issue_rules, final_rules, update_rules = self.parse_rules()
        bounds = self.parse_bounds()
        witness = self.parse_witness()
        self.expect("EOF")
        return AlgorithmSpec(
            name=name,
            vocab=vocab,
            labels=frozenset(labels),
            states=tuple(states),
            initial=frozenset(initial),
            templates=tuple(templates),
            issue_rules=tuple(issue_rules),
            final_rules=tuple(final_rules),
            update_rules=tuple(update_rules),
            bounds=bounds,
            witness=tuple(witness),
            span=self.span_from(0),
        )

    def parse_vocabulary(self) -> Vocabulary:
        self.expect("vocabulary")
        self.expect("{")
        decls: list[SymbolDecl] = []
        while not self.at("}"):
            flag = self.expect("static", "dynamic", "relational")
            static = self.kinds[flag] == "static"
            relational = self.accept("relational") is not None or self.kinds[flag] == "relational"
            i = self.ident("symbol name")
            name = self.texts[i]
            self.expect("/")
            arity = self.nat()
            if name in LOGIC_NAMES:
                raise DslNameError(f"symbol {name!r} is a reserved logic name", self.span(i, i))
            if name in self.decl_spans:
                raise DslNameError(f"symbol {name!r} declared twice", self.span(i, i))
            self.decl_spans[name] = self.span_from(flag)
            decls.append(SymbolDecl(name, arity, static=static, relational=relational))
        self.expect("}")
        return Vocabulary.make(decls)

    def parse_labels(self) -> list[str]:
        self.expect("labels")
        self.expect("{")
        labels: list[str] = []
        while not self.at("}"):
            i = self.ident("label")
            label = self.texts[i]
            if label in labels:
                raise DslNameError(f"label {label!r} declared twice", self.span(i, i))
            if self.vocab is not None and label in self.vocab:
                raise DslNameError(f"label {label!r} collides with a vocabulary symbol", self.span(i, i))
            labels.append(label)
            self.labels.add(label)
        self.expect("}")
        return labels

    def parse_states(self) -> list[StateDef]:
        states: list[StateDef] = []
        texts = self.texts
        if not self.at("state"):
            self.expect("state")
        while self.at("state"):
            start = self.advance()
            i = self.ident("state name")
            name = texts[i]
            if any(s.name == name for s in states):
                raise DslNameError(f"state {name!r} declared twice", self.span(i, i))
            self.expect("{")
            base_kw = self.expect("base")
            base: list[str] = []
            while self.at("IDENT"):
                base.append(texts[self.advance()])
            if not base:
                raise DslSyntaxError("base line lists no elements", self.span(base_kw, base_kw), expected=("IDENT",))
            interp: dict[str, dict[tuple[str, ...], str]] = {}
            while self.at("interp"):
                self.advance()
                sym = self.ident("symbol name")
                if texts[sym] not in self.vocab:
                    raise DslNameError(f"unknown symbol {texts[sym]!r}", self.span(sym, sym))
                self.expect("(")
                args: list[str] = []
                while self.at("IDENT"):
                    args.append(texts[self.advance()])
                self.expect(")")
                self.expect("=")
                value = texts[self.ident("element")]
                decl = self.vocab.decl(texts[sym])
                if len(args) != decl.arity:
                    raise DslArityError(f"{texts[sym]!r} has arity {decl.arity}, entry lists {len(args)} arguments", self.span(sym, sym))
                interp.setdefault(texts[sym], {})[tuple(args)] = value
            self.expect("}")
            try:
                structure = Structure.make(self.vocab, base, interp)
            except EngineError as exc:
                raise DslNameError(f"state {name!r}: {exc}", self.span_from(start)) from exc
            states.append(StateDef(name, structure, self.span_from(start)))
        return states

    def parse_initial(self, state_names: set[str]) -> list[str]:
        self.expect("initial")
        names: list[str] = []
        while self.at("IDENT"):
            i = self.advance()
            if self.texts[i] not in state_names:
                raise DslNameError(f"initial state {self.texts[i]!r} is not declared", self.span(i, i))
            names.append(self.texts[i])
        if not names:
            raise DslSyntaxError("initial line lists no states", self.span(self.pos, self.pos), expected=("IDENT",))
        return names

    def parse_queries(self) -> list[QueryTemplate]:
        templates: list[QueryTemplate] = []
        while self.at("query"):
            start = self.advance()
            i = self.ident("query template name")
            name = self.texts[i]
            if name in self.template_names:
                raise DslNameError(f"query template {name!r} declared twice", self.span(i, i))
            self.template = name
            self.expect("=")
            parts = self.parse_qtuple(self.parse_component)
            self.template_names.add(name)
            templates.append(QueryTemplate(name, parts, self.span_from(start)))
        return templates

    def parse_qtuple(self, component: Callable[[], Label | Term | Elem]) -> tuple[Label | Term | Elem, ...]:
        self.expect("(")
        parts: list[Label | Term | Elem] = []
        while not self.at(")"):
            parts.append(component())
        close = self.expect(")")
        if not parts:
            raise DslSyntaxError("query tuple has no components", self.span(close, close), expected=("IDENT",))
        return tuple(parts)

    def parse_component(self) -> Label | Term:
        i = self.pos
        # an IDENT is never the final token, so i + 1 is in range
        if self.kinds[i] == "IDENT" and self.kinds[i + 1] != "(" and self.texts[i] in self.labels:
            self.pos = i + 1
            return Label(self.texts[i])
        return self.parse_term()  # a bare IDENT that is no label is a nullary symbol

    def parse_term(self) -> Term:
        i = self.pos
        kind = self.kinds[i]
        if kind == "reply":
            if self.in_witness:
                raise DslSyntaxError("witness terms take no 'reply'; use a $variable", self.span(i, i))
            self.pos = i + 1
            self.expect("(")
            qname = self._template_ref()
            self.expect(")")
            return ReplyVar(qname)
        if kind == "$":
            self.pos = i + 1
            name = self.texts[self.ident("variable name")]
            if not self.in_witness:
                raise DslSyntaxError(f"variable ${name} may appear only in witness terms", self.span_from(i))
            return Var(name)
        if kind != "IDENT":
            raise DslSyntaxError(f"expected a term, found {self.texts[i]!r}", self.span(i, i), expected=("IDENT", "reply", "$"))
        self.pos = i + 1
        symbol = self.texts[i]
        if symbol not in self.vocab:
            raise DslNameError(f"unknown symbol {symbol!r}", self.span(i, i))
        decl = self.vocab.decl(symbol)
        args: list[Term] = []
        if self.kinds[i + 1] == "(":
            self.pos = i + 2
            self.nest(i + 1)
            if not self.at(")"):
                args.append(self.parse_term())
                while self.accept(",") is not None:
                    args.append(self.parse_term())
            self.expect(")")
            self.depth -= 1
        if len(args) != decl.arity:
            raise DslArityError(f"{symbol!r} has arity {decl.arity}, applied to {len(args)} arguments", self.span(i, i))
        return App(symbol, tuple(args))

    def _template_ref(self) -> str:
        i = self.ident("query template name")
        name = self.texts[i]
        if name not in self.template_names:
            what = "reads its own reply" if name == self.template else "is not declared"
            raise DslNameError(f"query template {name!r} {what}", self.span(i, i))
        return name

    # guards

    def parse_guard(self) -> Guard:
        return self._parse_or()[0]

    # Each guard parser returns its guard and the guard's height in connectives.

    def _parse_or(self) -> tuple[Guard, int]:
        return self._parse_chain("or", Or, self._parse_and)

    def _parse_and(self) -> tuple[Guard, int]:
        return self._parse_chain("and", And, self._parse_not)

    def _parse_chain(
        self, word: str, node: type[And] | type[Or], operand: Callable[[], tuple[Guard, int]]
    ) -> tuple[Guard, int]:
        """A left-nested chain `a word b word c ...`.

        The parser loops over the chain, but every connective puts one more
        node above the first operand, so it counts toward MAX_NESTING like a
        `not` or a parenthesis: no guard tree is deeper than the parser allows.
        """
        left, height = operand()
        while (i := self.accept(word)) is not None:
            right, right_height = operand()
            left, height = node(left, right), max(height, right_height) + 1
            if self.depth + height > MAX_NESTING:
                raise DslSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.span(i, i))
        return left, height

    def _parse_not(self) -> tuple[Guard, int]:
        i = self.accept("not")
        if i is not None:
            self.nest(i)
            inner, height = self._parse_not()
            self.depth -= 1
            return Not(inner), height + 1
        i = self.accept("(")
        if i is not None:
            self.nest(i)
            inner, height = self._parse_or()
            self.expect(")")
            self.depth -= 1
            return inner, height
        return self._parse_atom(), 0

    def _parse_atom(self) -> Guard:
        i = self.pos
        kind = self.kinds[i]
        if kind == "start":
            self.pos = i + 1
            return Start(span=self.span(i, i))
        if kind == "answered" or kind == "unanswered":
            self.pos = i + 1
            self.expect("(")
            qname = self._template_ref()
            self.expect(")")
            node = Answered if kind == "answered" else Unanswered
            return node(qname, span=self.span_from(i))
        if kind == "before" or kind == "simultaneous":
            self.pos = i + 1
            self.expect("(")
            first = self._template_ref()
            self.expect(",")
            second = self._template_ref()
            self.expect(")")
            node = Before if kind == "before" else Simultaneous
            return node(first, second, span=self.span_from(i))
        if kind == "reply":
            self.pos = i + 1
            self.expect("(")
            qname = self._template_ref()
            self.expect(")")
            self.expect("=")
            term = self.parse_term()
            return ReplyEq(qname, term, span=self.span_from(i))
        left = self.parse_term()
        self.expect("=")
        right = self.parse_term()
        return TermEq(left, right, span=self.span_from(i))

    # rules

    def parse_rules(self) -> tuple[list[IssueRule], list[FinalRule], list[UpdateRule]]:
        issue_rules: list[IssueRule] = []
        final_rules: list[FinalRule] = []
        update_rules: list[UpdateRule] = []
        names: set[str] = set()
        texts = self.texts
        while (kind := self.kinds[self.pos]) in ("issue", "final", "update"):
            kw = self.advance()
            i = self.ident("rule name")
            name = texts[i]
            if name in names:
                raise DslNameError(f"rule name {name!r} used twice", self.span(i, i))
            names.add(name)
            self.expect(":")
            self.expect("when")
            guard = self.parse_guard()
            if kind == "issue":
                self.expect("emit")
                parts = self.parse_qtuple(self.parse_component)
                issue_rules.append(IssueRule(name, guard, QueryTemplate(None, parts), self.span_from(kw)))
            elif kind == "final":
                out = self.expect("succeed", "fail")
                final_rules.append(FinalRule(name, guard, self.kinds[out], self.span_from(kw)))
            else:
                sym = self.ident("dynamic symbol")
                symbol = texts[sym]
                if symbol not in self.vocab:
                    raise DslNameError(f"unknown symbol {symbol!r}", self.span(sym, sym))
                decl = self.vocab.decl(symbol)
                if decl.static:
                    raise DslNameError(f"rule {name!r} updates static symbol {symbol!r}", self.span(sym, sym))
                self.expect("(")
                args: list[Term] = []
                if not self.at(")"):
                    args.append(self.parse_term())
                    while self.accept(",") is not None:
                        args.append(self.parse_term())
                self.expect(")")
                if len(args) != decl.arity:
                    raise DslArityError(f"{symbol!r} has arity {decl.arity}, location lists {len(args)} arguments", self.span(sym, sym))
                self.expect(":=")
                value = self.parse_term()
                update_rules.append(UpdateRule(name, guard, symbol, tuple(args), value, self.span_from(kw)))
        return issue_rules, final_rules, update_rules

    def parse_bounds(self) -> Bounds:
        start = self.expect("bounds")
        self.expect("{")
        max_query_len = self.bound("max_query_len")
        max_issued = self.bound("max_issued")
        self.expect("}")
        return Bounds(max_query_len, max_issued, self.span_from(start))

    def bound(self, key: str) -> int:
        """`key NAT`, the NAT at least 1."""
        i = self.ident(key)
        if self.texts[i] != key:
            raise DslSyntaxError(f"expected {key!r}", self.span(i, i), expected=(key,))
        value = self.nat()
        if value < 1:
            raise DslSyntaxError(f"{key} must be at least 1, found {self.texts[i + 1]}", self.span(i + 1, i + 1))
        return value

    def parse_witness(self) -> list[WitnessDecl]:
        self.expect("witness")
        self.in_witness = True
        terms: list[WitnessDecl] = []

        def entry() -> None:
            start = self.pos
            terms.append(WitnessDecl(self.parse_term(), self.span_from(start)))

        self.braced(entry)
        return terms

    # query and history literals, scripts, iso files

    def word(self, what: str) -> int:
        """A name in a literal, script or iso file; keywords are names there too."""
        i = self.pos
        if self.kinds[i] == "IDENT" or self.kinds[i] in _KEYWORDS:
            self.pos = i + 1
            return i
        raise DslSyntaxError(f"expected {what}, found {self.texts[i]!r}", self.span(i, i), expected=("IDENT",))

    def braced(self, entry: Callable[[], object]) -> int:
        """`{ [entry (";" entry)*] }`; returns the closing brace."""
        self.expect("{")
        if not self.at("}"):
            entry()
            while self.accept(";") is not None:
                entry()
        return self.expect("}")

    def parse_query_literal(self) -> Query:
        return Query(self.parse_qtuple(self.literal_component))

    def literal_component(self) -> Label | Elem:
        text = self.texts[self.word("label or #element")]
        return Elem(text[1:]) if text[0] == "#" else Label(text)

    def parse_answer(self, answers: dict[Query, str]) -> Query:
        """One `(q) -> reply` entry, added to answers, which must not answer q yet."""
        start = self.pos
        q = self.parse_query_literal()
        self.expect("->")
        reply = self.texts[self.word("reply")]
        if q in answers:
            raise DslSyntaxError(f"{format_query(q)} is answered twice", self.span_from(start))
        answers[q] = reply
        return q

    def parse_history_literal(self) -> History:
        answers: dict[Query, str] = {}
        phases: dict[Query, int] = {}

        def entry() -> None:
            q = self.parse_answer(answers)
            self.expect("@")
            phases[q] = self.nat()

        self.braced(entry)
        return mk_history(answers, phases)

    def parse_script(self) -> list[dict[Query, str] | None]:
        items: list[dict[Query, str] | None] = []
        while not self.at("EOF"):
            i = self.advance()
            if self.texts[i] == "stall":
                items.append(None)
            elif self.texts[i] == "phase":
                batch: dict[Query, str] = {}
                close = self.braced(lambda: self.parse_answer(batch))
                if not batch:
                    raise DslSyntaxError("phase block answers no queries", self.span(close, close))
                items.append(batch)
            else:
                raise DslSyntaxError(f"expected 'phase' or 'stall', found {self.texts[i]!r}", self.span(i, i))
        return items

    def parse_iso(self, spec: AlgorithmSpec) -> list[tuple[dict[str, str], str, str]]:
        isos: list[tuple[dict[str, str], str, str]] = []
        while not self.at("EOF"):
            i = self.advance()
            if self.texts[i] != "iso":
                raise DslSyntaxError(f"expected 'iso', found {self.texts[i]!r}", self.span(i, i))
            name_a, name_b = self.state_ref(spec), self.state_ref(spec)
            mapping: dict[str, str] = {}

            def entry() -> None:
                source = self.element(spec, name_a)
                if self.texts[source] in mapping:
                    raise DslSyntaxError(f"element {self.texts[source]!r} is mapped twice", self.span(source, source))
                self.expect("->")
                mapping[self.texts[source]] = self.texts[self.element(spec, name_b)]

            self.braced(entry)
            isos.append((mapping, name_a, name_b))
        return isos

    def state_ref(self, spec: AlgorithmSpec) -> str:
        i = self.ident("state name")
        if self.texts[i] not in spec.state_names:
            raise DslNameError(f"state {self.texts[i]!r} is not declared", self.span(i, i))
        return self.texts[i]

    def element(self, spec: AlgorithmSpec, state: str) -> int:
        i = self.word("element")
        if self.texts[i] not in spec.state(state).elements:
            raise DslNameError(f"{self.texts[i]!r} is not an element of state {state!r}", self.span(i, i))
        return i


def parse_spec(text: str) -> AlgorithmSpec:
    """Parse a machine description; raises Dsl*Error with a source span."""
    return _Parser(*_lex(text)).parse_spec()


def _parse_text(text: str, production: Callable[[_Parser], T]) -> T:
    """Parse the whole of a text that may hold query literals with one production."""
    parser = _Parser(*_lex(text, elements=True))
    out = production(parser)
    parser.expect("EOF")
    return out


def parse_query(text: str) -> Query:
    """Parse a query literal like `(offer0)` or `(pair #client0)`."""
    return _parse_text(text, _Parser.parse_query_literal)


def parse_history(text: str) -> History:
    """Parse a history literal like `{ (offer0) -> yes @0 ; (offer1) -> no @1 }`."""
    return _parse_text(text, _Parser.parse_history_literal)


def parse_script(text: str) -> list[dict[Query, str] | None]:
    """Parse a script into its batches, in order; None stands for a `stall`."""
    return _parse_text(text, _Parser.parse_script)


def parse_iso(text: str, spec: AlgorithmSpec) -> list[tuple[dict[str, str], str, str]]:
    """Parse an iso file into (mapping, state, state) triples, checked against spec."""
    return _parse_text(text, lambda parser: parser.parse_iso(spec))


# --- Printer --------------------------------------------------------------------

_PREC = {Or: 1, And: 2, Not: 3}


def _guard_prec(g: Guard) -> int:
    return _PREC.get(type(g), 4)


def format_guard(g: Guard) -> str:
    if isinstance(g, Start):
        return "start"
    if isinstance(g, Answered):
        return f"answered({g.qname})"
    if isinstance(g, Unanswered):
        return f"unanswered({g.qname})"
    if isinstance(g, ReplyEq):
        return f"reply({g.qname}) = {format_term(g.term)}"
    if isinstance(g, Before):
        return f"before({g.first}, {g.second})"
    if isinstance(g, Simultaneous):
        return f"simultaneous({g.first}, {g.second})"
    if isinstance(g, TermEq):
        if isinstance(g.left, ReplyVar):
            # prints identically to the reply atom, which is how it reparses
            return f"reply({g.left.name}) = {format_term(g.right)}"
        return f"{format_term(g.left)} = {format_term(g.right)}"
    if isinstance(g, Not):
        inner = format_guard(g.inner)
        if _guard_prec(g.inner) < _PREC[Not]:
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(g, (And, Or)):
        word = "and" if isinstance(g, And) else "or"
        prec = _guard_prec(g)
        left = format_guard(g.left)
        right = format_guard(g.right)
        if _guard_prec(g.left) < prec:
            left = f"({left})"
        if _guard_prec(g.right) <= prec:
            right = f"({right})"
        return f"{left} {word} {right}"
    raise EngineError(f"unknown guard node {g!r}")


def format_qtuple(parts: tuple[Label | Term, ...]) -> str:
    words = [p.name if isinstance(p, Label) else format_term(p) for p in parts]
    return "(" + " ".join(words) + ")"


def print_spec(spec: AlgorithmSpec) -> str:
    """Canonical text form; parsing it yields an AST equal modulo spans."""
    out: list[str] = [f"algorithm {spec.name}", ""]
    out.append("vocabulary {")
    for d in spec.vocab.user_symbols:
        out.append(f"  {format_symbol_decl(d)}")
    out.append("}")
    out.append("")
    out.append("labels { " + " ".join(sorted(spec.labels)) + " }" if spec.labels else "labels { }")
    out.append("")
    for s in spec.states:
        out.append(f"state {s.name} {{")
        out.append("  base " + " ".join(s.structure.base))
        for name, args, value in canonical_interp_entries(s.structure):
            out.append(f"  interp {name} ({' '.join(args)}) = {value}")
        out.append("}")
        out.append("")
    out.append("initial " + " ".join(sorted(spec.initial)))
    out.append("")
    for t in spec.templates:
        out.append(f"query {t.name} = {format_qtuple(t.parts)}")
    if spec.templates:
        out.append("")
    for r in spec.issue_rules:
        out.append(f"issue {r.name}: when {format_guard(r.guard)} emit {format_qtuple(r.template.parts)}")
    for r in spec.final_rules:
        out.append(f"final {r.name}: when {format_guard(r.guard)} {r.outcome}")
    for r in spec.update_rules:
        args = ", ".join(format_term(a) for a in r.args)
        out.append(f"update {r.name}: when {format_guard(r.guard)} {r.symbol}({args}) := {format_term(r.value)}")
    if spec.issue_rules or spec.final_rules or spec.update_rules:
        out.append("")
    out.append("bounds {")
    out.append(f"  max_query_len {spec.bounds.max_query_len}")
    out.append(f"  max_issued {spec.bounds.max_issued}")
    out.append("}")
    out.append("")
    if spec.witness:
        out.append("witness { " + " ; ".join(format_term(w.term) for w in spec.witness) + " }")
    else:
        out.append("witness { }")
    return "\n".join(out) + "\n"


# --- Validation ------------------------------------------------------------------


@dataclass(frozen=True)
class SpecDiagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Span | None


def _guard_atoms(g: Guard):
    if isinstance(g, Not):
        yield from _guard_atoms(g.inner)
    elif isinstance(g, (And, Or)):
        yield from _guard_atoms(g.left)
        yield from _guard_atoms(g.right)
    else:
        yield g


def _guard_terms(g: Guard):
    for atom in _guard_atoms(g):
        if isinstance(atom, ReplyEq):
            yield atom.term, atom.span
        elif isinstance(atom, TermEq):
            yield atom.left, atom.span
            yield atom.right, atom.span


def _guard_template_refs(g: Guard):
    for atom in _guard_atoms(g):
        if isinstance(atom, (Answered, Unanswered)):
            yield atom.qname, atom.span
        elif isinstance(atom, ReplyEq):
            yield atom.qname, atom.span
        elif isinstance(atom, (Before, Simultaneous)):
            yield atom.first, atom.span
            yield atom.second, atom.span


def _term_ok(vocab: Vocabulary, term: Term) -> str | None:
    if isinstance(term, App):
        if term.symbol not in vocab:
            return f"unknown symbol {term.symbol!r}"
        if vocab.decl(term.symbol).arity != len(term.args):
            return f"{term.symbol!r} applied to {len(term.args)} arguments, arity is {vocab.decl(term.symbol).arity}"
        for a in term.args:
            bad = _term_ok(vocab, a)
            if bad:
                return bad
    return None


def _reaches_cycle(name: str, refs: dict[str, set[str]], seen: dict[str, int]) -> bool:
    """Whether the reply references from template name run into a cycle.

    Depth first; seen maps a template to 1 while its references are walked
    and to 2 once they are done, and is shared between calls.  A module-level
    function, so that no closure refers to itself and validating a spec
    leaves no reference cycle behind.
    """
    state = seen.get(name, 0)
    if state:
        return state == 1
    seen[name] = 1
    cyclic = any(_reaches_cycle(dep, refs, seen) for dep in sorted(refs.get(name, ())))
    seen[name] = 2
    return cyclic


def validate_spec(spec: AlgorithmSpec, *, strict: bool = False) -> list[SpecDiagnostic]:
    """Static checks beyond the grammar; empty (or warnings only) means usable."""
    out: list[SpecDiagnostic] = []

    def err(code: str, message: str, span: Span | None) -> None:
        out.append(SpecDiagnostic("error", code, message, span))

    def warn(code: str, message: str, span: Span | None) -> None:
        out.append(SpecDiagnostic("warning", code, message, span))

    if not spec.states:
        err("states-empty", "a machine needs at least one state", spec.span)
    if not spec.initial:
        err("initial-empty", "a machine needs at least one initial state", spec.span)
    state_names = {s.name for s in spec.states}
    for name in sorted(spec.initial):
        if name not in state_names:
            err("initial-unknown", f"initial state {name!r} is not declared", spec.span)
    for s in spec.states:
        if s.structure.vocab != spec.vocab:
            err("state-vocabulary", f"state {s.name!r} uses a different vocabulary", s.span)
    if spec.bounds.max_query_len < 1 or spec.bounds.max_issued < 1:
        err("bounds-positive", "declared bounds must be positive", spec.bounds.span)
    for label in sorted(spec.labels):
        if label in spec.vocab:
            err("label-symbol-clash", f"label {label!r} collides with a vocabulary symbol", spec.span)

    tnames: set[str] = set()
    for t in spec.templates:
        if t.name in tnames:
            err("duplicate-template", f"query template {t.name!r} declared twice", t.span)
        tnames.add(t.name)
    refs: dict[str, set[str]] = {}
    for t in spec.templates:
        needed: set[str] = set()
        for part in t.parts:
            if isinstance(part, Label):
                if part.name not in spec.labels:
                    err("label-undeclared", f"template {t.name!r} uses undeclared label {part.name!r}", t.span)
                continue
            bad = _term_ok(spec.vocab, part)
            if bad:
                err("term", f"template {t.name!r}: {bad}", t.span)
            for v in term_variables(part):
                if isinstance(v, ReplyVar):
                    needed.add(v.name)
                    if v.name not in tnames:
                        err("template-ref", f"template {t.name!r} references undeclared template {v.name!r}", t.span)
                else:
                    err("free-variable", f"template {t.name!r} has a free variable ${v.name}", t.span)
        refs[t.name or ""] = needed
    # reply references between templates must be acyclic
    seen: dict[str, int] = {}
    for t in spec.templates:
        if t.name and _reaches_cycle(t.name, refs, seen):
            err("template-cycle", f"template {t.name!r} reaches itself through reply references", t.span)
            break

    rule_names: set[str] = set()
    all_rules = [*spec.issue_rules, *spec.final_rules, *spec.update_rules]
    for r in all_rules:
        if r.name in rule_names:
            err("duplicate-rule", f"rule name {r.name!r} used twice", r.span)
        rule_names.add(r.name)
        for qname, span in _guard_template_refs(r.guard):
            if qname not in tnames:
                err("template-ref", f"rule {r.name!r} references undeclared template {qname!r}", span or r.span)
        for term, span in _guard_terms(r.guard):
            bad = _term_ok(spec.vocab, term)
            if bad:
                err("term", f"rule {r.name!r}: {bad}", span or r.span)
            for v in term_variables(term):
                if isinstance(v, Var):
                    err("free-variable", f"rule {r.name!r} has a free variable ${v.name}", span or r.span)
                elif v.name not in tnames:
                    err("template-ref", f"rule {r.name!r} references undeclared template {v.name!r}", span or r.span)
    for r in spec.issue_rules:
        for part in r.template.parts:
            if isinstance(part, Label):
                if part.name not in spec.labels:
                    err("label-undeclared", f"rule {r.name!r} emits undeclared label {part.name!r}", r.span)
            else:
                bad = _term_ok(spec.vocab, part)
                if bad:
                    err("term", f"rule {r.name!r}: {bad}", r.span)
                for v in term_variables(part):
                    if isinstance(v, ReplyVar) and v.name not in tnames:
                        err("template-ref", f"rule {r.name!r} references undeclared template {v.name!r}", r.span)
    for r in spec.update_rules:
        if r.symbol not in spec.vocab:
            err("term", f"rule {r.name!r} updates unknown symbol {r.symbol!r}", r.span)
            continue
        decl = spec.vocab.decl(r.symbol)
        if decl.static:
            err("update-static", f"rule {r.name!r} updates static symbol {r.symbol!r}", r.span)
        if decl.arity != len(r.args):
            err("term", f"rule {r.name!r}: {r.symbol!r} has arity {decl.arity}, location lists {len(r.args)}", r.span)
        for term in (*r.args, r.value):
            bad = _term_ok(spec.vocab, term)
            if bad:
                err("term", f"rule {r.name!r}: {bad}", r.span)
        # a closed value reads no reply: the rule gives it wherever it fires
        if decl.relational and _term_ok(spec.vocab, r.value) is None and next(term_variables(r.value), None) is None:
            for x, name in [(s.structure, s.name) for s in spec.states if s.structure.vocab == spec.vocab]:
                value = eval_term(x, r.value)
                if value not in (x.true_el, x.false_el):
                    problem = f"gives relational symbol {r.symbol!r} the non-Boolean value {value!r} in state {name!r}"
                    err("update-relational", f"rule {r.name!r} {problem}", r.span)
                    break
    for w in spec.witness:
        bad = _term_ok(spec.vocab, w.term)
        if bad:
            err("term", f"witness term: {bad}", w.span)
        for v in term_variables(w.term):
            if isinstance(v, ReplyVar):
                err("witness-reply-var", "witness terms use plain variables, not reply references", w.span)
    if strict and not spec.final_rules:
        warn(
            "no-final-rules",
            "no final rule declared; every step ending relies on completion finality",
            spec.span,
        )
    return out
