"""The text formats besides specs: query and history literals, scripts and iso files.

All of them are read by `interstep.dsl` on the spec lexer.  Each format
round-trips through its printer, and a mutated text of any format, specs
included, either parses or raises an `EngineError`; a `DslError` has a span.
"""

from __future__ import annotations

import re
import string
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCRIPTS, SPECS
from interstep.dsl import _KEYWORDS, DslError, parse_history, parse_iso, parse_query, parse_spec, tokenize
from interstep.errors import EngineError
from interstep.execution import STALL, parse_script
from interstep.history import Elem, Label, Query, format_history, format_query, mk_history
from oracle import format_iso, format_script

BROKER_SYM = parse_spec((SPECS / "broker_sym.isa").read_text())

# any word: a name, or a keyword, which these formats take as a name
FIRST = string.ascii_letters + "_"
names = st.builds(str.__add__, st.sampled_from(FIRST), st.text(FIRST + string.digits, max_size=5))
words = st.one_of(names, st.sampled_from(sorted(_KEYWORDS)))
queries = st.lists(st.one_of(words.map(Label), words.map(Elem)), min_size=1, max_size=4).map(
    lambda parts: Query(tuple(parts))
)
answers = st.dictionaries(queries, words, max_size=5)
batches = st.dictionaries(queries, words, min_size=1, max_size=4)


@st.composite
def histories(draw):
    answered = draw(answers)
    return mk_history(answered, {q: draw(st.integers(0, 9)) for q in answered})


@st.composite
def isos(draw):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        name_a, name_b = draw(st.sampled_from(BROKER_SYM.state_names)), draw(st.sampled_from(BROKER_SYM.state_names))
        sources = draw(st.lists(st.sampled_from(BROKER_SYM.state(name_a).base), unique=True, max_size=4))
        target = st.sampled_from(BROKER_SYM.state(name_b).base)
        out.append(({a: draw(target) for a in sources}, name_a, name_b))
    return out


# --- Round trips ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(queries)
def test_query_round_trip(q):
    assert parse_query(format_query(q)) == q


@settings(max_examples=100, deadline=None)
@given(histories())
def test_history_round_trip(xi):
    assert parse_history(format_history(xi)) == xi


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.just(STALL), batches), max_size=4))
def test_script_round_trip(items):
    assert parse_script(format_script(items)) == items


@settings(max_examples=100, deadline=None)
@given(isos())
def test_iso_round_trip(items):
    assert parse_iso(format_iso(items), BROKER_SYM) == items


def test_hash_marks_an_element_only_inside_a_query():
    text = "# a comment\nphase { (pair #client0) -> yes }  # (another #one)\nstall # (x\n"
    assert parse_script(text) == [{Query((Label("pair"), Elem("client0"))): "yes"}, STALL]
    # in a spec `#` starts a comment wherever it stands
    assert [t.text for t in tokenize("(pair #client0)")] == ["(", "pair", ""]
    assert [t.text for t in tokenize("(pair #client0)", elements=True)] == ["(", "pair", "#client0", ")", ""]


@pytest.mark.parametrize("text, span", [("(pair # client0)", "1:7"), ("(pair #)", "1:7"), ("( )", "1:3")])
def test_bad_element_is_spanned(text, span):
    with pytest.raises(DslError, match=f"^{span}: "):
        parse_query(text)


# --- Fuzz: mutated texts of every format ------------------------------------------------


def parse_iso_sym(text: str):
    return parse_iso(text, BROKER_SYM)


SHORT_SEEDS = [
    ("algorithm a vocabulary { dynamic f/1 } labels { q } state S { base a false true undef interp f (a) = a }"
     " initial S query t = (q) final e: when reply(t) = f(a) succeed bounds { max_query_len 1 max_issued 1 }"
     " witness { f(a) }", parse_spec),
    ("(q #a)", parse_query),
    ("{ (q) -> a @0 ; (r #e) -> b @1 }", parse_history),
    ("phase { (q #e) -> a }\nstall\n", parse_script),
    ("iso X0 Y0 { client0 -> client1 }", parse_iso_sym),
]
SEEDS = [((SPECS / "broker_sym.isa").read_text(), parse_spec), *SHORT_SEEDS]
FRAGMENTS = ["(", ")", "{", "}", ";", "->", "@", "#", "# c\n", "0", "9" * 5000, "²", "é", "start", "x", " ", "(" * 200]
TOKEN = re.compile(r"[A-Za-z0-9_]+|\s+|->|.")


def parses_or_raises_engine_error(parse: Callable[[str], object], text: str) -> None:
    """Only an EngineError may escape; one raised by the dsl carries a span."""
    try:
        parse(text)
    except DslError as exc:
        assert exc.span.line >= 1
    except EngineError:
        pass


@pytest.mark.parametrize("seed", range(len(SHORT_SEEDS)))
def test_every_token_substitution_parses_or_raises_engine_errors(seed):
    text, parse = SHORT_SEEDS[seed]
    tokens = TOKEN.findall(text)
    for k in range(len(tokens)):
        for fragment in ["", *FRAGMENTS]:
            parses_or_raises_engine_error(parse, "".join(tokens[:k]) + fragment + "".join(tokens[k + 1 :]))


@st.composite
def mutated(draw):
    text, parse = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3))) + text[j:]
    return text, parse


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_texts_parse_or_raise_engine_errors(case):
    text, parse = case
    parses_or_raises_engine_error(parse, text)
