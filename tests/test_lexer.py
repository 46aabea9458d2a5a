"""The regex lexer of `interstep.dsl` against the reference lexer in `oracle`.

Tokens (kind, text and span) must be equal, or both lexers must raise
`DslSyntaxError` with the same message and span.  The one intended
difference: the reference takes non-ASCII digits for a numeral, the regex
lexer rejects them.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, SPECS
from interstep.dsl import _KEYWORDS, DslSyntaxError, parse_spec, print_spec, tokenize
from interstep.structure import Structure
from oracle import reference_parse_spec, reference_tokenize

_specgen_module = importlib.util.spec_from_file_location("specgen", ROOT / "perfbench" / "specgen.py")
specgen = importlib.util.module_from_spec(_specgen_module)
_specgen_module.loader.exec_module(specgen)

SHIPPED = [(SPECS / name).read_text() for name in ("broker.isa", "broker_preferred.isa", "broker_sym.isa")]

NON_ASCII = "# Ein Makler bietet zwei Kunden Aktien an — „ja“ oder „nein“ ✓\n" + SHIPPED[0].replace(
    "\ninitial X0\n", "\ninitial X0  # Anfangszustand X₀, 🙂\n"
)


def lex(lexer, text: str):
    try:
        return [(t.kind, t.text, t.span) for t in lexer(text)]
    except DslSyntaxError as exc:
        return ("error", exc.message, exc.span)


def parse(parser, text: str):
    try:
        return parser(text)
    except DslSyntaxError as exc:
        return ("error", type(exc), exc.message, exc.span)


# --- Property: random ASCII texts ----------------------------------------------

ALPHABET = string.ascii_letters + string.digits + "_ \t\r\n#{}():;,=/@$-><" + "!%&*+.?[]^`|~'\"\\\x0b\x0c"
FRAGMENTS = sorted(_KEYWORDS) + ["->", ":=", "# note\n", "#", "\n", "42", "007", "owner_1", "reply(q)", "$x"]
pieces = st.one_of(st.sampled_from(FRAGMENTS), st.text(ALPHABET, max_size=4))
ascii_texts = st.lists(pieces, max_size=40).map("".join)


@st.composite
def mutated_specs(draw) -> str:
    text = draw(st.sampled_from(SHIPPED))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(pieces) + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(ascii_texts, mutated_specs()))
def test_tokens_equal_the_reference(text):
    assert lex(tokenize, text) == lex(reference_tokenize, text)


# --- Corpus: whole specs -----------------------------------------------------------


def corpus() -> list[str]:
    texts = [*SHIPPED, NON_ASCII]
    texts += [specgen.broker_text(n, preferred=p) for n in (2, 3, 4) for p in (False, True)]
    rng = random.Random(8)
    return texts + [specgen.disguise(text, rng, "disguised") for text in texts]


def spans(node, path: str = "spec"):
    """(path, span) of every node of a parsed spec, in field order."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if f.name == "span":
                yield path, value
            else:
                yield from spans(value, f"{path}.{f.name}")
    elif isinstance(node, tuple):
        for k, item in enumerate(node):
            yield from spans(item, f"{path}[{k}]")


@pytest.mark.parametrize("text", corpus())
def test_corpus_parses_as_with_the_reference(text):
    assert lex(tokenize, text) == lex(reference_tokenize, text)
    spec = parse_spec(text)
    reference = reference_parse_spec(text)
    assert spec == reference
    found = list(spans(spec))
    assert found == list(spans(reference))
    assert sum(span is not None for _, span in found) > 20


@pytest.mark.parametrize("text", corpus())
def test_corpus_states_store_only_non_default_entries(text):
    # dropping any stored entry changes the state: none of them restates a default
    for sdef in parse_spec(text).states:
        x = sdef.structure
        stored = [(name, args, value) for name, entries in x.tables for args, value in entries]
        assert stored
        for dropped in stored:
            interp: dict[str, dict[tuple[str, ...], str]] = {}
            for name, args, value in stored:
                if (name, args, value) != dropped:
                    interp.setdefault(name, {})[args] = value
            assert Structure.make(x.vocab, x.base, interp) != x


@pytest.mark.parametrize("text", corpus())
def test_corpus_round_trips_through_the_printer(text):
    spec = parse_spec(text)
    printed = print_spec(spec)
    again = parse_spec(printed)
    assert again == spec
    assert print_spec(again) == printed


MALFORMED = [
    SHIPPED[0].replace("algorithm broker", "algorithm brokér"),  # non-ASCII letter inside a word
    SHIPPED[0].replace("algorithm broker", "algorithm ébroker"),  # non-ASCII letter opening a word
    SHIPPED[0].replace("algorithm broker", "algorithm broker²"),  # non-ASCII digit inside a word
    NON_ASCII.replace("labels {", "labels { % "),  # unexpected character after a non-ASCII comment
    NON_ASCII.replace("base client0", "base ✓ client0"),  # non-ASCII symbol
    SHIPPED[0].replace("initial X0", "initial X0\x0b"),  # a blank the language does not allow
    NON_ASCII[: NON_ASCII.index("labels")],  # input ends early
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_fails_as_with_the_reference(text):
    error = parse(parse_spec, text)
    assert error[0] == "error"
    assert error == parse(reference_parse_spec, text)


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_non_ascii_digits_are_the_one_difference(digit):
    text = SHIPPED[0].replace("dynamic owner/0", f"dynamic owner/{digit}")
    assert digit in [t.text for t in reference_tokenize(text) if t.kind == "NAT"]
    error = parse(parse_spec, text)
    assert error[:3] == ("error", DslSyntaxError, f"unexpected character {digit!r}")
