from __future__ import annotations

import dataclasses
import gc
import importlib.util
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ROOT, SPECS
from interstep import dsl
from interstep.dsl import (
    MAX_NESTING,
    DslArityError,
    DslError,
    DslNameError,
    DslSyntaxError,
    format_guard,
    parse_spec,
    print_spec,
    tokenize,
    validate_spec,
)
from interstep.model import And, Not, Or, ReplyEq, Start, TermEq
from interstep.structure import App
from oracle import reference_parse_spec

_specgen_module = importlib.util.spec_from_file_location("specgen", ROOT / "perfbench" / "specgen.py")
specgen = importlib.util.module_from_spec(_specgen_module)
_specgen_module.loader.exec_module(specgen)

MINIMAL = """
algorithm idle

vocabulary { }

labels { }

state S {
  base false true undef
}

initial S

bounds {
  max_query_len 1
  max_issued 1
}

witness { }
"""


class TestParse:
    def test_broker_node_counts(self, broker):
        assert len(broker.issue_rules) == 4
        assert len(broker.final_rules) == 5
        assert len(broker.update_rules) == 5
        assert len(broker.templates) == 4
        assert broker.labels == {"offer0", "offer1", "choose", "timeout"}
        assert broker.state_names == ("X0",)
        assert broker.initial == {"X0"}
        assert broker.bounds.max_query_len == 1 and broker.bounds.max_issued == 5
        assert len(broker.witness) == 4

    def test_minimal_machine(self):
        spec = parse_spec(MINIMAL)
        assert spec.issue_rules == () and spec.final_rules == () and spec.witness == ()

    def test_missing_emit_is_a_syntax_error(self):
        text = MINIMAL.replace("bounds {", "issue x: when start\nbounds {")
        with pytest.raises(DslSyntaxError) as err:
            parse_spec(text)
        assert "emit" in str(err.value.expected)

    def test_undeclared_template_is_a_name_error(self):
        text = MINIMAL.replace("bounds {", "final f: when reply(unknownq) = true() succeed\nbounds {")
        with pytest.raises(DslNameError):
            parse_spec(text)

    def test_unknown_symbol_is_a_name_error(self):
        text = MINIMAL.replace("bounds {", "final f: when nosuch() = true() succeed\nbounds {")
        with pytest.raises(DslNameError):
            parse_spec(text)

    def test_arity_error(self):
        text = MINIMAL.replace("bounds {", "final f: when Boole() = true() succeed\nbounds {")
        with pytest.raises(DslArityError):
            parse_spec(text)

    def test_label_symbol_collision_rejected(self):
        text = MINIMAL.replace("vocabulary { }", "vocabulary { static a/0 }").replace(
            "labels { }", "labels { a }"
        )
        with pytest.raises(DslNameError):
            parse_spec(text)

    def test_spans_point_into_the_source(self):
        text = MINIMAL.replace("bounds {", "final f: when reply(ghost) = true() succeed\nbounds {")
        with pytest.raises(DslNameError) as err:
            parse_spec(text)
        span = err.value.span
        assert 0 <= span.start <= span.end <= len(text.encode())
        assert text.splitlines()[span.line - 1].find("ghost") >= 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n" + MINIMAL.replace("initial S", "initial S  # trailing comment")
        parse_spec(text)

    def test_non_ascii_identifier_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_spec(MINIMAL.replace("algorithm idle", "algorithm idlé"))

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_is_a_spanned_syntax_error(self, digit):
        # numerals are ASCII: str.isdigit would take both for a numeral
        text = MINIMAL.replace("vocabulary { }", f"vocabulary {{ dynamic owner/{digit} }}")
        with pytest.raises(DslSyntaxError, match=f"unexpected character {digit!r}") as err:
            parse_spec(text)
        span = err.value.span
        assert text.encode()[span.start : span.end].decode() == digit
        assert (span.line, span.column) == (4, text.splitlines()[3].index(digit) + 1)

    def test_non_ascii_comment_keeps_byte_offsets(self):
        text = "# Übersicht — ein Makler\n" + MINIMAL.replace("algorithm idle", "algorithm idle  # ✓")
        text = text.replace("labels { }", "labels { ghost% }")
        with pytest.raises(DslSyntaxError, match="unexpected character '%'") as err:
            parse_spec(text)
        span = err.value.span
        assert text.encode()[span.start : span.end] == b"%"
        assert text.splitlines()[span.line - 1][span.column - 1] == "%"

    def test_huge_numeral_is_a_spanned_syntax_error(self):
        numeral = "9" * 5000  # more digits than int() converts
        text = MINIMAL.replace("max_issued 1", f"max_issued {numeral}")
        with pytest.raises(DslSyntaxError, match="too large") as err:
            parse_spec(text)
        assert text[err.value.span.start : err.value.span.end] == numeral


class TestLargeArity:
    """A state stores only its non-default entries, so no arity makes a state costly to build."""

    def spec_with(self, decl: str, base: str = "false true undef") -> str:
        return MINIMAL.replace("vocabulary { }", f"vocabulary {{\n  {decl}\n}}").replace(
            "base false true undef", f"base {base}"
        )

    def test_arity_30_parses_at_once(self):
        text = self.spec_with("dynamic owner/30", base="a b c d e false true undef")
        start = time.perf_counter()
        spec = parse_spec(text)
        assert time.perf_counter() - start < 0.5
        assert spec.states[0].structure.value("owner", ["a"] * 30) == "undef"
        assert validate_spec(spec) == []

    def test_30_digit_arity_parses_and_prints(self):
        spec = parse_spec(self.spec_with("static relational p/" + "9" * 30))
        assert spec.vocab.arity("p") == 10**30 - 1
        assert parse_spec(print_spec(spec)) == spec

class TestGuardGrammar:
    def parse_guard_text(self, guard_text):
        text = MINIMAL.replace(
            "vocabulary { }", "vocabulary { static a/0 static b/0 }"
        ).replace("initial S", "initial S\n\nquery q = (a())\nquery p = (b())").replace(
            "bounds {", f"final f: when {guard_text} succeed\nbounds {{"
        )
        return parse_spec(text).final_rules[0].guard

    def test_precedence_not_binds_tightest(self):
        g = self.parse_guard_text("not answered(q) and answered(p)")
        assert isinstance(g, And) and isinstance(g.left, Not)

    def test_precedence_and_over_or(self):
        g = self.parse_guard_text("answered(q) and answered(p) or start")
        assert isinstance(g, Or) and isinstance(g.left, And) and isinstance(g.right, Start)

    def test_left_associativity(self):
        g = self.parse_guard_text("start and start and start")
        assert isinstance(g, And) and isinstance(g.left, And) and isinstance(g.right, Start)

    def test_parenthesized_grouping(self):
        g = self.parse_guard_text("start and (start or start)")
        assert isinstance(g, And) and isinstance(g.right, Or)

    def test_not_applies_to_whole_atom(self):
        g = self.parse_guard_text("not reply(q) = a()")
        assert isinstance(g, Not) and isinstance(g.inner, ReplyEq)

    def test_term_equality_atom(self):
        g = self.parse_guard_text("a() = b()")
        assert isinstance(g, TermEq) and g.left == App("a") and g.right == App("b")

    def test_bare_nullary_symbol_sugar(self):
        g = self.parse_guard_text("a = b")
        assert g == TermEq(App("a"), App("b"))

    def test_guard_printing_round_trips(self):
        for text in [
            "not answered(q) and answered(p)",
            "answered(q) and answered(p) or start",
            "start and (start or start)",
            "not (answered(q) or answered(p))",
            "not not start",
            "reply(q) = a() and not reply(p) = b()",
            "before(q, p) or simultaneous(p, q)",
        ]:
            g = self.parse_guard_text(text)
            assert self.parse_guard_text(format_guard(g)) == g


NESTED = {
    "not": ("not", lambda n: "not " * n + "start"),
    "parentheses": ("(", lambda n: "(" * n + "start" + ")" * n),
    "applications": ("(", lambda n: "f(" * n + "a" + ")" * n + " = a"),
    "and-chain": ("and", lambda n: " and ".join(["start"] * (n + 1))),
    "or-chain": ("or", lambda n: " or ".join(["start"] * (n + 1))),
}


def spec_with_nested_guard(shape: str, depth: int) -> str:
    guard = NESTED[shape][1](depth)
    return MINIMAL.replace("vocabulary { }", "vocabulary { static a/0 static f/1 }").replace(
        "bounds {", f"final deep: when {guard} succeed\nbounds {{"
    )


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTED)
    def test_limit_depth_parses(self, shape):
        parse_spec(spec_with_nested_guard(shape, MAX_NESTING))

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 4000])
    @pytest.mark.parametrize("shape", NESTED)
    def test_deeper_nesting_is_a_spanned_syntax_error(self, shape, depth):
        text = spec_with_nested_guard(shape, depth)
        with pytest.raises(DslSyntaxError) as err:
            parse_spec(text)
        span = err.value.span
        opener = NESTED[shape][0]
        assert text[span.start : span.end] == opener
        before = text[: span.start]
        # the span is the opener one level past the limit
        assert before[before.rindex("\n") :].count(opener) == MAX_NESTING

    @pytest.mark.parametrize("links, fits", [(9, True), (10, False)])
    def test_chains_inside_parentheses_count_toward_the_limit(self, links, fits):
        # 10 groups, each a chain of `links` connectives whose first operand is the next group,
        # so the outer group, inside one parenthesis, is 10 * links connectives deep
        guard = "(" * 10 + "start" + (" and start" * links + ")") * 10
        text = MINIMAL.replace("bounds {", f"final deep: when {guard} succeed\nbounds {{")
        if fits:
            parse_spec(text)
        else:
            with pytest.raises(DslSyntaxError, match="nesting deeper than"):
                parse_spec(text)


class TestPrint:
    def test_round_trip_broker(self, broker):
        text = print_spec(broker)
        again = parse_spec(text)
        assert again == broker

    def test_print_is_canonical_fixed_point(self, broker):
        text = print_spec(broker)
        assert print_spec(parse_spec(text)) == text

    def test_round_trip_all_fixture_files(self):
        for name in ("broker.isa", "broker_preferred.isa", "broker_sym.isa"):
            spec = parse_spec((SPECS / name).read_text())
            assert parse_spec(print_spec(spec)) == spec

    def test_round_trip_minimal(self):
        spec = parse_spec(MINIMAL)
        assert parse_spec(print_spec(spec)) == spec


class TestValidate:
    def test_broker_is_clean(self, broker):
        assert validate_spec(broker) == []

    def test_validation_leaves_no_garbage(self, broker):
        # the template-cycle walk once was a closure that referred to itself
        gc.collect()
        gc.disable()
        try:
            validate_spec(broker)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fixture_files_are_clean(self, broker_preferred, broker_sym):
        assert validate_spec(broker_preferred) == []
        assert validate_spec(broker_sym) == []

    def test_empty_states_rejected(self, broker):
        spec = dataclasses.replace(broker, states=(), initial=frozenset())
        codes = {d.code for d in validate_spec(spec)}
        assert "states-empty" in codes and "initial-empty" in codes

    def test_initial_not_among_states(self, broker):
        spec = dataclasses.replace(broker, initial=frozenset({"nowhere"}))
        assert any(d.code == "initial-unknown" for d in validate_spec(spec))

    def test_nonpositive_bounds_rejected(self, broker):
        spec = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=0))
        assert any(d.code == "bounds-positive" for d in validate_spec(spec))

    def test_bad_state_structure_rejected(self, broker):
        from interstep.structure import Structure, StructureError

        interp = {name: dict(entries) for name, entries in broker.states[0].structure.tables}
        interp.setdefault("true", {})[()] = "false"
        with pytest.raises(StructureError, match="true, false and undef must denote distinct elements"):
            Structure.make(broker.vocab, broker.states[0].structure.base, interp)

    def test_template_cycle_detected(self, broker):
        from interstep.history import Label
        from interstep.model import QueryTemplate
        from interstep.structure import ReplyVar

        t1 = QueryTemplate("c1", (Label("offer0"), ReplyVar("c2")))
        t2 = QueryTemplate("c2", (Label("offer1"), ReplyVar("c1")))
        spec = dataclasses.replace(broker, templates=broker.templates + (t1, t2))
        assert any(d.code == "template-cycle" for d in validate_spec(spec))

    def test_witness_reply_var_rejected(self, broker):
        from interstep.model import WitnessDecl
        from interstep.structure import ReplyVar

        spec = dataclasses.replace(broker, witness=(WitnessDecl(ReplyVar("choose")),))
        assert any(d.code == "witness-reply-var" for d in validate_spec(spec))

    def test_update_of_static_symbol_rejected(self, broker):
        from interstep.model import UpdateRule, Start
        from interstep.structure import App

        rule = UpdateRule("bad", Start(), "yes", (), App("client0"))
        spec = dataclasses.replace(broker, update_rules=broker.update_rules + (rule,))
        assert any(d.code == "update-static" for d in validate_spec(spec))

    @pytest.mark.parametrize(
        "value, diagnostic",
        [
            ("client0()", "the non-Boolean value 'client0' in state 'X0'"),
            ("flag()", "the non-Boolean value 'client0' in state 'Y0'"),
            ("eq(client0(), client1())", None),
            ("reply(choose)", None),  # reads a reply: decided where the update is built
        ],
    )
    def test_closed_non_boolean_value_of_a_relational_symbol_rejected(self, value, diagnostic):
        """A closed value is read in every declared state, up to the first where it is not Boolean."""
        text = (SPECS / "broker_sym.isa").read_text()
        for old, new in (
            ("  dynamic owner/0\n", "  dynamic owner/0\n  dynamic relational sold/0\n  static flag/0\n"),
            # flag() is true in X0 and client0 in Y0
            ("  interp client0 () = client0\n", "  interp client0 () = client0\n  interp flag () = true\n"),
            ("  interp client0 () = client1\n", "  interp client0 () = client1\n  interp flag () = client0\n"),
            ("update sell0:", f"update mark: when answered(choose) sold() := {value}\nupdate sell0:"),
        ):
            assert text.count(old) == 1
            text = text.replace(old, new)
        diags = [(d.code, d.message, str(d.span)) for d in validate_spec(parse_spec(text))]
        expected = f"rule 'mark' gives relational symbol 'sold' {diagnostic}"
        assert diags == ([] if diagnostic is None else [("update-relational", expected, "54:1")])

    def test_strict_mode_warns_without_final_rules(self, broker):
        spec = dataclasses.replace(broker, final_rules=())
        assert not any(d.code == "no-final-rules" for d in validate_spec(spec))
        diags = validate_spec(spec, strict=True)
        assert any(d.code == "no-final-rules" and d.severity == "warning" for d in diags)

    def test_parsed_spec_diagnostics_carry_spans(self, broker):
        spec = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=0))
        for d in validate_spec(spec):
            assert d.span is not None


# --- The front end reads token lists ------------------------------------------------


@pytest.mark.parametrize("name", ["broker.isa", "broker_preferred.isa", "broker_sym.isa", "broker_4"])
def test_parse_spec_builds_no_token(name, monkeypatch):
    text = specgen.broker_text(4) if name == "broker_4" else (SPECS / name).read_text()

    def refuse(*args):
        raise AssertionError("a Token was built")

    monkeypatch.setattr(dsl.Token, "__init__", refuse)
    parse_spec(text)
    with pytest.raises(AssertionError, match="a Token was built"):
        tokenize(text)


def node_spans(node, path: str = "spec"):
    """(path, span) of every node of a parsed spec, in field order."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            yield from [(path, value)] if f.name == "span" else node_spans(value, f"{path}.{f.name}")
    elif isinstance(node, tuple):
        for k, item in enumerate(node):
            yield from node_spans(item, f"{path}[{k}]")


def outcome(parser, text: str):
    try:
        spec = parser(text)
    except DslError as exc:
        return ("error", type(exc), exc.message, exc.span)
    return spec, list(node_spans(spec))


# what may end a line: blanks and comments with multi-byte characters, then `\n` or `\r\n`
LINE_ENDS = st.tuples(
    st.sampled_from(["", " ", "\t", "\t \t"]),
    st.sampled_from(["", "# café ✓", "#ünïcödé 🙂 \t", "#", "# 2 ≥ 1, ¬p"]),
    st.sampled_from(["\n", "\r\n"]),
).map("".join)


@st.composite
def decorated_specs(draw) -> str:
    """A disguised broker_2..4 with blanks, multi-byte comments and CRLF at random line ends."""
    n, seed = draw(st.integers(2, 4)), draw(st.integers(0, 2**16))
    lines = specgen.disguise(specgen.broker_text(n), random.Random(seed), "decorated").split("\n")
    return "".join(line + draw(LINE_ENDS) for line in lines[:-1]) + lines[-1]


@settings(max_examples=40, deadline=None)
@given(decorated_specs())
def test_decorated_specs_parse_as_with_the_reference(text):
    found = outcome(parse_spec, text)
    assert found[0] != "error"
    assert found == outcome(reference_parse_spec, text)


@settings(max_examples=60, deadline=None)
@given(decorated_specs(), st.randoms(use_true_random=False))
def test_corrupted_specs_fail_as_with_the_reference(text, rng):
    # one character replaced, anywhere, by one that starts no token or by one that changes the tokens
    i = rng.randrange(len(text))
    text = text[:i] + rng.choice(["%!é✓ö\x0b", "{}()=;:,/@$#-_x0 \n"][rng.randrange(2)]) + text[i + 1 :]
    expected = outcome(reference_parse_spec, text)
    assume(expected[0] == "error")
    assert outcome(parse_spec, text) == expected
