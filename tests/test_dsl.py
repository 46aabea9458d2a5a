from __future__ import annotations

import dataclasses
import time

import pytest

from conftest import SPECS
from interstep import structure
from interstep.dsl import (
    MAX_NESTING,
    MAX_TABLE,
    DslArityError,
    DslNameError,
    DslSyntaxError,
    format_guard,
    parse_spec,
    print_spec,
    validate_spec,
)
from interstep.model import And, Not, Or, ReplyEq, Start, TermEq
from interstep.structure import App

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


class TestTableBound:
    def spec_with(self, decl: str, base: str = "false true undef") -> str:
        return MINIMAL.replace("vocabulary { }", f"vocabulary {{\n  {decl}\n}}").replace(
            "base false true undef", f"base {base}"
        )

    def test_huge_arity_is_rejected_at_the_declaration(self):
        text = self.spec_with("dynamic owner/30")
        start = time.perf_counter()
        with pytest.raises(DslSyntaxError, match=f"3\\^30 table entries in state 'S', more than {MAX_TABLE}") as err:
            parse_spec(text)
        assert time.perf_counter() - start < 0.5
        assert text[err.value.span.start : err.value.span.end] == "dynamic owner/30"

    def test_huge_arity_over_a_one_element_base_is_rejected(self):
        text = self.spec_with("static relational p/" + "9" * 30, base="x")
        with pytest.raises(DslSyntaxError, match="table entries"):
            parse_spec(text)

    @pytest.mark.parametrize("arity, fits", [(2, True), (3, False)])
    def test_bound_is_inclusive(self, monkeypatch, arity, fits):
        monkeypatch.setattr(structure, "MAX_TABLE", 100)
        text = self.spec_with(f"dynamic owner/{arity}", base="a b c d e f g false true undef")
        if fits:
            assert parse_spec(text).states[0].structure.value("owner", ["a"] * arity) == "undef"
        else:
            with pytest.raises(DslSyntaxError, match="10\\^3 table entries"):
                parse_spec(text)

    def test_logic_tables_count_against_the_base_line(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_TABLE", 8)
        text = self.spec_with("static a/0")
        with pytest.raises(DslSyntaxError, match="3\\^2 entries per logic table") as err:
            parse_spec(text)
        assert text[err.value.span.start : err.value.span.end] == "base false true undef"


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

    def test_bad_state_structure_reported(self, broker):
        from interstep.structure import Structure

        interp = {name: dict(entries) for name, entries in broker.states[0].structure.tables}
        interp["true"][()] = "false"
        bad = Structure.make(broker.vocab, broker.states[0].structure.base, interp)
        spec = dataclasses.replace(broker, states=(dataclasses.replace(broker.states[0], structure=bad),))
        assert any(d.code == "structure" for d in validate_spec(spec))

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

    def test_strict_mode_warns_without_final_rules(self, broker):
        spec = dataclasses.replace(broker, final_rules=())
        assert not any(d.code == "no-final-rules" for d in validate_spec(spec))
        diags = validate_spec(spec, strict=True)
        assert any(d.code == "no-final-rules" and d.severity == "warning" for d in diags)

    def test_parsed_spec_diagnostics_carry_spans(self, broker):
        spec = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=0))
        for d in validate_spec(spec):
            assert d.span is not None
