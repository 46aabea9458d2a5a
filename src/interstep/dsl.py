"""Textual language for machine descriptions: parser, printer, validation.

Grammar (canonical section order; `#` comments run to end of line):

    spec       := "algorithm" NAME vocab labels states queries rules bounds witness
    vocab      := "vocabulary" "{" symdecl* "}"
    symdecl    := ("static" | "dynamic") ["relational"] NAME "/" NAT
                | "relational" NAME "/" NAT                    # dynamic relational
    labels     := "labels" "{" NAME* "}"
    states     := stateblock+ "initial" NAME+
    stateblock := "state" NAME "{" "base" NAME+ interpline* "}"
    interpline := "interp" (NAME | "not" | "and" | "or") "(" NAME* ")" "=" NAME
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
    bounds     := "bounds" "{" "max_query_len" NAT "max_issued" NAT "}"
    witness    := "witness" "{" [term (";" term)*] "}"

Rule names are unique, and an update rule's symbol is dynamic.

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
`Boole` and `eq` remain spellable; `interp` lines may list them).  `reply(q) = t`
always parses as the reply-comparison atom.  `not`, parenthesized guards and
term arguments nest at most MAX_NESTING deep, and each `and`/`or` of a chain
counts as one more level.

Lexer: tokens are ASCII.  NAME is `[A-Za-z_][A-Za-z0-9_]*` and NAT is
`[0-9]+`: numerals are ASCII digits only, so `²` or `٣` is an unexpected
character, and a word with non-ASCII letters or digits is rejected whole.
Only comments may hold other characters.  One compiled regex matches a gap
(blanks and comments) and the token after it, position by position; tokens
keep plain int positions and build their Span only when it is read.  In a
query's parentheses outside specs, a second regex without comments takes over.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NoReturn, TypeVar

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
    AND,
    LOGIC_NAMES,
    NOT,
    OR,
    App,
    ReplyVar,
    Structure,
    SymbolDecl,
    Term,
    Var,
    Vocabulary,
    canonical_interp_entries,
    format_symbol_decl,
    format_term,
    term_variables,
    validate_structure,
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

# Each match is one gap (blanks and `#` comments) and the token after it:
# group 1 punctuation, 2 a numeral, 3 a word.  The token is optional, so a
# match that captures none ends where the text ends or no token can start.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"(?:(->|:=|[{}():;,=/@$])|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*))?"
)
# In a query's parentheses outside specs: no comment, and `#name` is a word.
_TOKEN_IN_QUERY = re.compile(
    r"[ \t\r\n]*"
    r"(?:(->|:=|[{}():;,=/@$])|([0-9]+)|(#?[A-Za-z_][A-Za-z0-9_]*))?"
)


class Token:
    """A token with its position as plain ints; `span` builds the Span on demand."""

    __slots__ = ("kind", "text", "line", "column", "start", "end")

    def __init__(self, kind: str, text: str, line: int, column: int, start: int, end: int):
        self.kind = kind  # keyword text, punct text, "IDENT", "NAT", "EOF"
        self.text = text
        self.line = line
        self.column = column
        self.start = start  # byte offsets, as in Span
        self.end = end

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, self.start, self.end)


def tokenize(text: str, elements: bool = False) -> list[Token]:
    """Split text into tokens; each carries its line, column and byte offsets.

    Tokens are ASCII, so only the gaps between them (comments) can hold
    other characters: line and column come from the newlines in the gaps,
    and the byte offset is the character offset plus the extra UTF-8 bytes
    of the gaps so far.  With `elements`, for the texts that hold query
    literals, a word inside parentheses may be an element `#name`.
    """
    tokens: list[Token] = []
    match = _TOKEN.match
    ascii_text = text.isascii()
    pos = 0  # character offset where the next gap starts
    line = 1
    line_start = 0  # character offset of the current line's first character
    shift = 0  # byte offset minus character offset
    while True:
        m = match(text, pos)
        group = m.lastindex
        at = m.start(group) if group else m.end()
        newlines = text.count("\n", pos, at)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, at) + 1
        if not ascii_text:
            gap = text[pos:at]
            shift += len(gap.encode("utf-8")) - len(gap)
        if group is None:
            break
        word = m.group(group)
        pos = m.end()
        if group == 3:
            if not ascii_text and pos < len(text) and text[pos].isalnum():
                _non_ascii_word(text, at, line, at - line_start + 1, at + shift)
            kind = word if word in _KEYWORDS else "IDENT"
        else:
            kind = "NAT" if group == 2 else word
        tokens.append(Token(kind, word, line, at - line_start + 1, at + shift, pos + shift))
        if elements and (kind == "(" or kind == ")"):
            match = (_TOKEN_IN_QUERY if kind == "(" else _TOKEN).match
    column, byte = at - line_start + 1, at + shift
    if at < len(text):
        ch = text[at]
        if ch.isalpha():
            _non_ascii_word(text, at, line, column, byte)
        raise DslSyntaxError(f"unexpected character {ch!r}", Span(line, column, byte, byte + len(ch.encode("utf-8"))))
    tokens.append(Token("EOF", "", line, column, byte, byte))
    return tokens


def _non_ascii_word(text: str, i: int, line: int, column: int, byte: int) -> NoReturn:
    """Reject the word of letters, digits and underscores at text[i:]; it is not ASCII."""
    j = i + 1
    while j < len(text) and (text[j].isalnum() or text[j] == "_"):
        j += 1
    word = text[i:j]
    raise DslSyntaxError(
        f"identifier {word!r} contains non-ASCII characters", Span(line, column, byte, byte + len(word.encode("utf-8")))
    )


# --- Parser ---------------------------------------------------------------------

MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.labels: set[str] = set()
        self.vocab: Vocabulary | None = None
        self.template_names: set[str] = set()
        self.decl_spans: dict[str, Span] = {}
        self.depth = 0
        self.in_witness = False  # whether terms take `$NAME` rather than `reply(QNAME)`

    # token plumbing

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]  # pos never passes the final EOF token

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, *kinds: str) -> Token:
        if self.at(*kinds):
            return self.advance()
        tok = self.peek()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise DslSyntaxError(f"expected {' or '.join(kinds)}, found {shown!r}", tok.span, expected=kinds)

    def ident(self, what: str = "identifier") -> Token:
        if self.at("IDENT"):
            return self.advance()
        tok = self.peek()
        raise DslSyntaxError(f"expected {what}, found {tok.text!r}", tok.span, expected=("IDENT",))

    def nest(self, tok: Token) -> None:
        """Enter one more level of guard or term nesting, opened by tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.span)

    def span_from(self, first: Token) -> Span:
        """The span from token first to the last token consumed."""
        end = self.tokens[self.pos - 1].end if self.pos else first.end
        return Span(first.line, first.column, first.start, end)

    def nat(self) -> int:
        tok = self.expect("NAT")
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise DslSyntaxError(f"numeral of {len(tok.text)} digits is too large", tok.span) from None

    # sections

    def parse_spec(self) -> AlgorithmSpec:
        start = self.peek()
        self.expect("algorithm")
        name = self.ident("algorithm name").text
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
            span=self.span_from(start),
        )

    def parse_vocabulary(self) -> Vocabulary:
        self.expect("vocabulary")
        self.expect("{")
        decls: list[SymbolDecl] = []
        while not self.at("}"):
            flag = self.expect("static", "dynamic", "relational")
            static = flag.kind == "static"
            relational = flag.kind == "relational"
            if self.accept("relational"):
                relational = True
            name_tok = self.ident("symbol name")
            self.expect("/")
            arity = self.nat()
            if name_tok.text in LOGIC_NAMES:
                raise DslNameError(f"symbol {name_tok.text!r} is a reserved logic name", name_tok.span)
            if name_tok.text in self.decl_spans:
                raise DslNameError(f"symbol {name_tok.text!r} declared twice", name_tok.span)
            self.decl_spans[name_tok.text] = self.span_from(flag)
            decls.append(SymbolDecl(name_tok.text, arity, static=static, relational=relational))
        self.expect("}")
        return Vocabulary.make(decls)

    def parse_labels(self) -> list[str]:
        self.expect("labels")
        self.expect("{")
        labels: list[str] = []
        while not self.at("}"):
            tok = self.ident("label")
            if tok.text in labels:
                raise DslNameError(f"label {tok.text!r} declared twice", tok.span)
            if self.vocab is not None and tok.text in self.vocab:
                raise DslNameError(f"label {tok.text!r} collides with a vocabulary symbol", tok.span)
            labels.append(tok.text)
            self.labels.add(tok.text)
        self.expect("}")
        return labels

    def parse_states(self) -> list[StateDef]:
        states: list[StateDef] = []
        if not self.at("state"):
            self.expect("state")
        while self.at("state"):
            start = self.peek()
            self.advance()
            name_tok = self.ident("state name")
            if any(s.name == name_tok.text for s in states):
                raise DslNameError(f"state {name_tok.text!r} declared twice", name_tok.span)
            self.expect("{")
            base_kw = self.expect("base")
            base: list[str] = []
            while self.at("IDENT"):
                base.append(self.advance().text)
            if not base:
                raise DslSyntaxError("base line lists no elements", base_kw.span, expected=("IDENT",))
            interp: dict[str, dict[tuple[str, ...], str]] = {}
            while self.at("interp"):
                self.advance()
                # the connectives are keywords, but a state may interpret them
                sym_tok = self.advance() if self.at(NOT, AND, OR) else self.ident("symbol name")
                if sym_tok.text not in self.vocab:
                    raise DslNameError(f"unknown symbol {sym_tok.text!r}", sym_tok.span)
                self.expect("(")
                args: list[str] = []
                while self.at("IDENT"):
                    args.append(self.advance().text)
                self.expect(")")
                self.expect("=")
                value_tok = self.ident("element")
                decl = self.vocab.decl(sym_tok.text)
                if len(args) != decl.arity:
                    raise DslArityError(
                        f"{sym_tok.text!r} has arity {decl.arity}, entry lists {len(args)} arguments", sym_tok.span
                    )
                interp.setdefault(sym_tok.text, {})[tuple(args)] = value_tok.text
            self.expect("}")
            try:
                structure = Structure.make(self.vocab, base, interp)
            except EngineError as exc:
                raise DslNameError(f"state {name_tok.text!r}: {exc}", self.span_from(start)) from exc
            states.append(StateDef(name_tok.text, structure, self.span_from(start)))
        return states

    def parse_initial(self, state_names: set[str]) -> list[str]:
        self.expect("initial")
        names: list[str] = []
        while self.at("IDENT"):
            tok = self.advance()
            if tok.text not in state_names:
                raise DslNameError(f"initial state {tok.text!r} is not declared", tok.span)
            names.append(tok.text)
        if not names:
            tok = self.peek()
            raise DslSyntaxError("initial line lists no states", tok.span, expected=("IDENT",))
        return names

    def parse_queries(self) -> list[QueryTemplate]:
        templates: list[QueryTemplate] = []
        while self.at("query"):
            start = self.peek()
            self.advance()
            name_tok = self.ident("query template name")
            if name_tok.text in self.template_names:
                raise DslNameError(f"query template {name_tok.text!r} declared twice", name_tok.span)
            self.template_names.add(name_tok.text)
            self.expect("=")
            parts = self.parse_qtuple(self.parse_component)
            templates.append(QueryTemplate(name_tok.text, parts, self.span_from(start)))
        return templates

    def parse_qtuple(self, component: Callable[[], Label | Term | Elem]) -> tuple[Label | Term | Elem, ...]:
        self.expect("(")
        parts: list[Label | Term | Elem] = []
        while not self.at(")"):
            parts.append(component())
        close = self.expect(")")
        if not parts:
            raise DslSyntaxError("query tuple has no components", close.span, expected=("IDENT",))
        return tuple(parts)

    def parse_component(self) -> Label | Term:
        tok = self.peek()
        if tok.kind == "IDENT" and self.peek(1).kind != "(":
            if tok.text in self.labels:
                self.advance()
                return Label(tok.text)
            # fall through: bare nullary symbol
        return self.parse_term()

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "reply":
            if self.in_witness:
                raise DslSyntaxError("witness terms take no 'reply'; use a $variable", tok.span)
            self.advance()
            self.expect("(")
            qname = self._template_ref()
            self.expect(")")
            return ReplyVar(qname)
        if tok.kind == "$":
            self.advance()
            name = self.ident("variable name").text
            if not self.in_witness:
                raise DslSyntaxError(f"variable ${name} may appear only in witness terms", self.span_from(tok))
            return Var(name)
        if tok.kind != "IDENT":
            raise DslSyntaxError(f"expected a term, found {tok.text!r}", tok.span, expected=("IDENT", "reply", "$"))
        self.advance()
        if tok.text not in self.vocab:
            raise DslNameError(f"unknown symbol {tok.text!r}", tok.span)
        decl = self.vocab.decl(tok.text)
        args: list[Term] = []
        open_tok = self.accept("(")
        if open_tok:
            self.nest(open_tok)
            if not self.at(")"):
                args.append(self.parse_term())
                while self.accept(","):
                    args.append(self.parse_term())
            self.expect(")")
            self.depth -= 1
        if len(args) != decl.arity:
            raise DslArityError(f"{tok.text!r} has arity {decl.arity}, applied to {len(args)} arguments", tok.span)
        return App(tok.text, tuple(args))

    def _template_ref(self) -> str:
        tok = self.ident("query template name")
        if tok.text not in self.template_names:
            raise DslNameError(f"query template {tok.text!r} is not declared", tok.span)
        return tok.text

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
        while tok := self.accept(word):
            right, right_height = operand()
            left, height = node(left, right), max(height, right_height) + 1
            if self.depth + height > MAX_NESTING:
                raise DslSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.span)
        return left, height

    def _parse_not(self) -> tuple[Guard, int]:
        tok = self.accept("not")
        if tok is not None:
            self.nest(tok)
            inner, height = self._parse_not()
            self.depth -= 1
            return Not(inner), height + 1
        tok = self.accept("(")
        if tok is not None:
            self.nest(tok)
            inner, height = self._parse_or()
            self.expect(")")
            self.depth -= 1
            return inner, height
        return self._parse_atom(), 0

    def _parse_atom(self) -> Guard:
        tok = self.peek()
        if tok.kind == "start":
            self.advance()
            return Start(span=tok.span)
        if tok.kind in ("answered", "unanswered"):
            self.advance()
            self.expect("(")
            qname = self._template_ref()
            close = self.expect(")")
            node = Answered if tok.kind == "answered" else Unanswered
            return node(qname, span=Span(tok.line, tok.column, tok.start, close.end))
        if tok.kind in ("before", "simultaneous"):
            self.advance()
            self.expect("(")
            first = self._template_ref()
            self.expect(",")
            second = self._template_ref()
            close = self.expect(")")
            node = Before if tok.kind == "before" else Simultaneous
            return node(first, second, span=Span(tok.line, tok.column, tok.start, close.end))
        if tok.kind == "reply":
            self.advance()
            self.expect("(")
            qname = self._template_ref()
            self.expect(")")
            self.expect("=")
            term = self.parse_term()
            return ReplyEq(qname, term, span=self.span_from(tok))
        left = self.parse_term()
        self.expect("=")
        right = self.parse_term()
        return TermEq(left, right, span=self.span_from(tok))

    # rules

    def parse_rules(self) -> tuple[list[IssueRule], list[FinalRule], list[UpdateRule]]:
        issue_rules: list[IssueRule] = []
        final_rules: list[FinalRule] = []
        update_rules: list[UpdateRule] = []
        names: set[str] = set()
        while self.at("issue", "final", "update"):
            kw = self.advance()
            name_tok = self.ident("rule name")
            name = name_tok.text
            if name in names:
                raise DslNameError(f"rule name {name!r} used twice", name_tok.span)
            names.add(name)
            self.expect(":")
            self.expect("when")
            guard = self.parse_guard()
            if kw.kind == "issue":
                self.expect("emit")
                parts = self.parse_qtuple(self.parse_component)
                issue_rules.append(IssueRule(name, guard, QueryTemplate(None, parts), self.span_from(kw)))
            elif kw.kind == "final":
                out = self.expect("succeed", "fail")
                final_rules.append(FinalRule(name, guard, out.kind, self.span_from(kw)))
            else:
                sym_tok = self.ident("dynamic symbol")
                if sym_tok.text not in self.vocab:
                    raise DslNameError(f"unknown symbol {sym_tok.text!r}", sym_tok.span)
                decl = self.vocab.decl(sym_tok.text)
                if decl.static:
                    raise DslNameError(f"rule {name!r} updates static symbol {sym_tok.text!r}", sym_tok.span)
                self.expect("(")
                args: list[Term] = []
                if not self.at(")"):
                    args.append(self.parse_term())
                    while self.accept(","):
                        args.append(self.parse_term())
                self.expect(")")
                if len(args) != decl.arity:
                    raise DslArityError(
                        f"{sym_tok.text!r} has arity {decl.arity}, location lists {len(args)} arguments",
                        sym_tok.span,
                    )
                self.expect(":=")
                value = self.parse_term()
                update_rules.append(
                    UpdateRule(name, guard, sym_tok.text, tuple(args), value, self.span_from(kw))
                )
        return issue_rules, final_rules, update_rules

    def parse_bounds(self) -> Bounds:
        start = self.peek()
        self.expect("bounds")
        self.expect("{")
        key1 = self.ident("max_query_len")
        if key1.text != "max_query_len":
            raise DslSyntaxError("expected 'max_query_len'", key1.span, expected=("max_query_len",))
        max_query_len = self.nat()
        key2 = self.ident("max_issued")
        if key2.text != "max_issued":
            raise DslSyntaxError("expected 'max_issued'", key2.span, expected=("max_issued",))
        max_issued = self.nat()
        self.expect("}")
        return Bounds(max_query_len, max_issued, self.span_from(start))

    def parse_witness(self) -> list[WitnessDecl]:
        self.expect("witness")
        self.in_witness = True
        terms: list[WitnessDecl] = []

        def entry() -> None:
            start = self.peek()
            terms.append(WitnessDecl(self.parse_term(), self.span_from(start)))

        self.braced(entry)
        return terms

    # query and history literals, scripts, iso files

    def word(self, what: str) -> Token:
        """A name in a literal, script or iso file; keywords are names there too."""
        tok = self.peek()
        if tok.kind == "IDENT" or tok.kind in _KEYWORDS:
            return self.advance()
        raise DslSyntaxError(f"expected {what}, found {tok.text!r}", tok.span, expected=("IDENT",))

    def braced(self, entry: Callable[[], object]) -> Token:
        """`{ [entry (";" entry)*] }`; returns the closing brace."""
        self.expect("{")
        if not self.at("}"):
            entry()
            while self.accept(";"):
                entry()
        return self.expect("}")

    def parse_query_literal(self) -> Query:
        return Query(self.parse_qtuple(self.literal_component))

    def literal_component(self) -> Label | Elem:
        text = self.word("label or #element").text
        return Elem(text[1:]) if text[0] == "#" else Label(text)

    def parse_answer(self, answers: dict[Query, str]) -> Query:
        """One `(q) -> reply` entry, added to answers, which must not answer q yet."""
        start = self.peek()
        q = self.parse_query_literal()
        self.expect("->")
        reply = self.word("reply").text
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
            tok = self.advance()
            if tok.text == "stall":
                items.append(None)
            elif tok.text == "phase":
                batch: dict[Query, str] = {}
                close = self.braced(lambda: self.parse_answer(batch))
                if not batch:
                    raise DslSyntaxError("phase block answers no queries", close.span)
                items.append(batch)
            else:
                raise DslSyntaxError(f"expected 'phase' or 'stall', found {tok.text!r}", tok.span)
        return items

    def parse_iso(self, spec: AlgorithmSpec) -> list[tuple[dict[str, str], str, str]]:
        isos: list[tuple[dict[str, str], str, str]] = []
        while not self.at("EOF"):
            tok = self.advance()
            if tok.text != "iso":
                raise DslSyntaxError(f"expected 'iso', found {tok.text!r}", tok.span)
            name_a, name_b = self.state_ref(spec), self.state_ref(spec)
            mapping: dict[str, str] = {}

            def entry() -> None:
                source = self.element(spec, name_a)
                if source.text in mapping:
                    raise DslSyntaxError(f"element {source.text!r} is mapped twice", source.span)
                self.expect("->")
                mapping[source.text] = self.element(spec, name_b).text

            self.braced(entry)
            isos.append((mapping, name_a, name_b))
        return isos

    def state_ref(self, spec: AlgorithmSpec) -> str:
        tok = self.ident("state name")
        if tok.text not in spec.state_names:
            raise DslNameError(f"state {tok.text!r} is not declared", tok.span)
        return tok.text

    def element(self, spec: AlgorithmSpec, state: str) -> Token:
        tok = self.word("element")
        if tok.text not in spec.state(state).elements:
            raise DslNameError(f"{tok.text!r} is not an element of state {state!r}", tok.span)
        return tok


def parse_spec(text: str) -> AlgorithmSpec:
    """Parse a machine description; raises Dsl*Error with a source span."""
    return _Parser(tokenize(text)).parse_spec()


def _parse_text(text: str, production: Callable[[_Parser], T]) -> T:
    """Parse the whole of a text that may hold query literals with one production."""
    parser = _Parser(tokenize(text, elements=True))
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
            continue
        for issue in validate_structure(spec.vocab, s.structure):
            err("structure", f"state {s.name!r}: {issue.message}", s.span)
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
