from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BROKER_POOL, SPECS, broker_with_confirm, h, lq
from interstep.analysis import EnumerationConfig, enumerate_attainable
from interstep.dsl import parse_spec
from interstep.history import EMPTY_HISTORY, Elem, History, Label, Query, history_sort_key, mk_history
from interstep.model import (
    AlgorithmSpec,
    And,
    Answered,
    Before,
    Guard,
    IncompatibleHistory,
    InstantiationError,
    IssueRule,
    ModelError,
    Not,
    NotSuccessful,
    Or,
    QueryTemplate,
    ReplyEq,
    Simultaneous,
    Start,
    TermEq,
    Unanswered,
    UpdateRule,
    causes,
    check_bounds,
    check_witness,
    holds,
    is_attainable,
    is_coherent,
    is_complete,
    issued,
    next_state,
    pending,
    update_set,
    verdict,
)
from interstep.structure import App, ReplyVar, Term, update
from oracle import holds as reference_holds
from oracle import reference_causes, reference_issued, reference_update_set, reference_verdict


class TestCauses:
    def test_empty_history_causes_the_three_initial_queries(self, broker, broker_state):
        assert causes(broker, broker_state, EMPTY_HISTORY) == {lq("offer0"), lq("offer1"), lq("timeout")}

    def test_simultaneous_yes_causes_choose(self, broker, broker_state):
        tie = h(("offer0", "yes", 0), ("offer1", "yes", 0))
        assert causes(broker, broker_state, tie) == {lq("choose")}

    def test_sale_ready_history_causes_nothing(self, broker, broker_state):
        assert causes(broker, broker_state, h(("offer0", "yes", 0))) == frozenset()

    def test_fired_rule_with_unanswered_reply_is_a_spec_bug(self, broker, broker_state):
        bad_rule = IssueRule(
            "bad", Start(), QueryTemplate(None, (Label("offer0"), ReplyVar("choose")))
        )
        bad = dataclasses.replace(broker, issue_rules=broker.issue_rules + (bad_rule,))
        # a rule built without source text has no position to give
        with pytest.raises(InstantiationError, match=r"^issue rule 'bad' fired but its query mentions an unanswered reply at \{ \}$"):
            causes(bad, broker_state, EMPTY_HISTORY)


class TestInstantiate:
    def test_label_only_template(self, broker, broker_state):
        t = broker.template("offer0")
        assert broker.evaluator(broker_state).instantiate(EMPTY_HISTORY, t) == lq("offer0")

    def test_reply_dependent_template(self, broker, broker_state):
        t = QueryTemplate(None, (Label("offer0"), ReplyVar("choose")))
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client1", 1))
        assert broker.evaluator(broker_state).instantiate(xi, t) == Query((Label("offer0"), Elem("client1")))

    def test_unanswered_reply_blocks_instantiation(self, broker, broker_state):
        t = QueryTemplate(None, (Label("offer0"), ReplyVar("choose")))
        assert broker.evaluator(broker_state).instantiate(EMPTY_HISTORY, t) is None

    def test_term_component_evaluates_under_state(self, broker, broker_state):
        t = QueryTemplate(None, (App("client0"),))
        assert broker.evaluator(broker_state).instantiate(EMPTY_HISTORY, t) == Query((Elem("client0"),))


class TestIssuedPending:
    def test_issued_on_empty_is_causes(self, broker, broker_state):
        assert issued(broker, broker_state, EMPTY_HISTORY) == causes(broker, broker_state, EMPTY_HISTORY)

    def test_issued_unions_over_prefixes(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client1", 1))
        assert issued(broker, broker_state, xi) == {lq("offer0"), lq("offer1"), lq("timeout"), lq("choose")}

    def test_pending_on_empty(self, broker, broker_state):
        assert pending(broker, broker_state, EMPTY_HISTORY) == {lq("offer0"), lq("offer1"), lq("timeout")}

    def test_pending_after_one_yes(self, broker, broker_state):
        assert pending(broker, broker_state, h(("offer0", "yes", 0))) == {lq("offer1"), lq("timeout")}

    def test_complete_history_has_nothing_pending(self, broker, broker_state):
        xi = h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))
        assert pending(broker, broker_state, xi) == frozenset()
        assert is_complete(broker, broker_state, xi)


class TestCoherence:
    def test_empty_is_coherent(self, broker, broker_state):
        assert is_coherent(broker, broker_state, EMPTY_HISTORY)

    def test_choose_without_tie_is_incoherent(self, broker, broker_state):
        assert not is_coherent(broker, broker_state, h(("choose", "client0", 0)))

    def test_tie_then_choose_is_coherent(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client1", 1))
        assert is_coherent(broker, broker_state, xi)

    def test_choose_simultaneous_with_tie_is_incoherent(self, broker, broker_state):
        # choose must be issued by a strictly earlier prefix
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client1", 0))
        assert not is_coherent(broker, broker_state, xi)


class TestVerdict:
    def test_one_positive_reply_is_final_successful(self, broker, broker_state):
        v = verdict(broker, broker_state, h(("offer0", "yes", 0)))
        assert v.is_final and v.is_success

    def test_one_negative_reply_is_not_final(self, broker, broker_state):
        assert not verdict(broker, broker_state, h(("offer0", "no", 0))).is_final

    def test_empty_is_not_final(self, broker, broker_state):
        assert verdict(broker, broker_state, EMPTY_HISTORY).kind == "not-final"

    def test_clash_on_final_history_fails(self, broker, broker_state):
        clash_rule = UpdateRule(
            "sell_bad",
            ReplyEq("offer0", App("yes")),
            "owner",
            (),
            App("client1"),
        )
        clashing = dataclasses.replace(broker, update_rules=broker.update_rules + (clash_rule,))
        v = verdict(clashing, broker_state, h(("offer0", "yes", 0)))
        assert v.is_fail
        assert "clash" in v.reason

    def test_fail_rule_takes_precedence(self, broker, broker_state):
        from interstep.model import FinalRule

        failing = dataclasses.replace(
            broker,
            final_rules=broker.final_rules + (FinalRule("veto", ReplyEq("offer0", App("yes")), "fail"),),
        )
        v = verdict(failing, broker_state, h(("offer0", "yes", 0)))
        assert v.is_fail and "veto" in v.reason

    def test_completion_finality_without_rules(self, broker, broker_state):
        bare = dataclasses.replace(broker, final_rules=())
        xi = h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))
        assert verdict(bare, broker_state, xi).is_success
        assert not verdict(bare, broker_state, h(("offer0", "no", 0))).is_final


class TestAttainability:
    def test_empty_is_attainable(self, broker, broker_state):
        assert is_attainable(broker, broker_state, EMPTY_HISTORY)

    def test_final_prefix_blocks_attainability(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "no", 1))
        assert not is_attainable(broker, broker_state, xi)

    def test_tie_is_attainable(self, broker, broker_state):
        assert is_attainable(broker, broker_state, h(("offer0", "yes", 0), ("offer1", "yes", 0)))

    def test_incoherent_is_unattainable(self, broker, broker_state):
        assert not is_attainable(broker, broker_state, h(("choose", "client0", 0)))


class TestUpdateSet:
    def test_sale_updates_owner(self, broker, broker_state):
        assert update_set(broker, broker_state, h(("offer0", "yes", 0))) == {update("owner", (), "client0")}

    def test_both_no_and_timeout_yield_no_update(self, broker, broker_state):
        xi = h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))
        assert update_set(broker, broker_state, xi) == frozenset()

    def test_choice_reply_becomes_the_value(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client0", 1))
        assert update_set(broker, broker_state, xi) == {update("owner", (), "client0")}

    def test_first_reply_wins_on_sequential_yes(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 1))
        assert update_set(broker, broker_state, xi) == {update("owner", (), "client0")}
        xi = h(("offer0", "yes", 1), ("offer1", "yes", 0))
        assert update_set(broker, broker_state, xi) == {update("owner", (), "client1")}

    def test_fired_rule_with_unanswered_reply_raises(self, broker, broker_state):
        bad_rule = UpdateRule("bad", Answered("offer0"), "owner", (), ReplyVar("choose"))
        bad = dataclasses.replace(broker, update_rules=(bad_rule,))
        with pytest.raises(InstantiationError, match=r"^update rule 'bad' fired but mentions an unanswered reply at \{ \(offer0\) -> yes @0 \}$"):
            update_set(bad, broker_state, h(("offer0", "yes", 0)))


class TestNextState:
    def test_sale_produces_updated_state(self, broker, broker_state):
        y = next_state(broker, broker_state, h(("offer0", "yes", 0)))
        assert y.value("owner") == "client0"
        assert y.base == broker_state.base

    def test_empty_delta_returns_equal_state(self, broker, broker_state):
        xi = h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))
        assert next_state(broker, broker_state, xi) == broker_state

    def test_requires_success(self, broker, broker_state):
        with pytest.raises(NotSuccessful):
            next_state(broker, broker_state, EMPTY_HISTORY)


class TestCheckBounds:
    def attainables(self, broker, broker_state):
        return [
            EMPTY_HISTORY,
            h(("offer0", "yes", 0)),
            h(("offer0", "yes", 0), ("offer1", "yes", 0)),
            h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client1", 1)),
        ]

    def test_declared_bounds_hold(self, broker, broker_state):
        assert check_bounds(broker, broker_state, self.attainables(broker, broker_state)) == []

    def test_small_issued_bound_is_violated(self, broker, broker_state):
        tight = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=2))
        issues = check_bounds(tight, broker_state, self.attainables(broker, broker_state))
        assert issues and all(i.code in ("issued-count", "domain-size") for i in issues)

    def test_quiet_machine_passes_any_positive_bounds(self, broker, broker_state):
        quiet = dataclasses.replace(broker, issue_rules=(), final_rules=(), update_rules=())
        assert check_bounds(quiet, broker_state, [EMPTY_HISTORY]) == []

    def test_query_length_bound(self, broker, broker_state):
        long_rule = IssueRule("wide", Start(), QueryTemplate(None, (Label("offer0"), Label("offer1"))))
        wide = dataclasses.replace(broker, issue_rules=broker.issue_rules + (long_rule,))
        issues = check_bounds(wide, broker_state, [EMPTY_HISTORY])
        assert any(i.code == "query-length" for i in issues)


class TestCheckWitness:
    def test_identical_states_agree(self, broker, broker_state):
        for xi in (EMPTY_HISTORY, h(("offer0", "yes", 0))):
            assert check_witness(broker, broker_state, broker_state, xi) == []

    def test_inert_difference_outside_witness_is_fine(self, broker, broker_state):
        # same machine over a vocabulary with an extra dynamic symbol the rules
        # never read: two states differing only there must behave identically
        from interstep.dsl import parse_spec, print_spec

        text = print_spec(broker).replace("dynamic owner/0", "dynamic owner/0\n  dynamic scratch/0")
        spec = parse_spec(text)
        xa = spec.state("X0")
        from interstep.structure import apply_updates

        xb = apply_updates(xa, {update("scratch", (), "yes")})
        for xi in (EMPTY_HISTORY, h(("offer0", "yes", 0)), h(("offer0", "yes", 0), ("offer1", "yes", 0))):
            assert check_witness(spec, xa, xb, xi) == []

    def test_emptied_witness_exposes_guard_reads(self, broker, broker_state):
        # perturb a location the guards read; with no witness terms the premise
        # holds vacuously, so the behavioral disagreement becomes a diagnostic
        from interstep.structure import Structure

        stripped = dataclasses.replace(broker, witness=())
        interp = {name: dict(entries) for name, entries in broker_state.tables}
        interp["yes"][()] = "no"
        other = Structure.make(broker.vocab, broker_state.base, interp)
        xi = h(("offer0", "yes", 0))
        issues = check_witness(stripped, broker_state, other, xi)
        assert issues
        assert {i.code for i in issues} <= {"causes-mismatch", "finality-mismatch", "updates-mismatch"}

    def test_witness_detects_the_same_perturbation(self, broker, broker_state):
        # with the declared witness the premise fails, so no obligation arises
        from interstep.structure import Structure

        interp = {name: dict(entries) for name, entries in broker_state.tables}
        interp["yes"][()] = "no"
        other = Structure.make(broker.vocab, broker_state.base, interp)
        assert check_witness(broker, broker_state, other, h(("offer0", "yes", 0))) == []

    def test_incompatible_history_rejected(self, broker, broker_state):
        xi = mk_history({Query((Elem("ghost"),)): "yes"}, {Query((Elem("ghost"),)): 0})
        with pytest.raises(IncompatibleHistory):
            check_witness(broker, broker_state, broker_state, xi)


BROKER = parse_spec((SPECS / "broker.isa").read_text())
# the broker's templates, and a name that has no template
QNAMES = ("choose", "offer0", "offer1", "timeout", "ghost")


@functools.cache
def broker_histories() -> list[History]:
    histories = enumerate_attainable(BROKER, BROKER.state("X0"), EnumerationConfig(reply_pool=BROKER_POOL)).histories
    return sorted(histories, key=history_sort_key)


def terms() -> st.SearchStrategy[Term]:
    """Closed terms, replies, and `eq` of two of them."""
    leaves = st.one_of(
        st.sampled_from(("client0", "client1", "no", "yes")).map(App),
        st.sampled_from(QNAMES).map(ReplyVar),
    )
    return st.one_of(leaves, st.tuples(leaves, leaves).map(lambda ab: App("eq", ab)))


def guards() -> st.SearchStrategy[Guard]:
    """Random guards over the broker's templates, with every atom and connective."""
    q = st.sampled_from(QNAMES)
    atoms = st.one_of(
        st.just(Start()),
        q.map(Answered),
        q.map(Unanswered),
        st.builds(ReplyEq, q, terms()),
        st.builds(Before, q, q),
        st.builds(Simultaneous, q, q),
        st.builds(TermEq, terms(), terms()),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(inner.map(Not), st.builds(And, inner, inner), st.builds(Or, inner, inner)),
        max_leaves=12,
    )


def outcome(semantics, *args) -> tuple[str, object]:
    """A guard's value, or the class of the error it raised."""
    try:
        return ("value", semantics(*args))
    except ModelError as exc:
        return ("error", type(exc))


def self_referencing_confirm() -> AlgorithmSpec:
    """`broker_with_confirm` with `(confirm reply(confirm))`, which the parser rejects, built through the API."""
    spec = broker_with_confirm("(confirm reply(choose))")
    parts = (Label("confirm"), ReplyVar("confirm"))
    templates = tuple(dataclasses.replace(t, parts=parts) if t.name == "confirm" else t for t in spec.templates)
    rules = tuple(
        dataclasses.replace(r, template=QueryTemplate(None, parts)) if r.name == "conf" else r for r in spec.issue_rules
    )
    return dataclasses.replace(spec, templates=templates, issue_rules=rules)


class TestEvaluatorMatchesReference:
    @pytest.mark.parametrize("name", ["broker", "broker_preferred", "broker_sym", "broker_confirm"])
    def test_every_attainable_history(self, request, name):
        if name == "broker_confirm":
            spec = broker_with_confirm("(confirm reply(choose))")
        else:
            spec = request.getfixturevalue(name)
        cfg = EnumerationConfig(reply_pool=BROKER_POOL)
        guarded = (*spec.issue_rules, *spec.final_rules, *spec.update_rules)
        for sdef in spec.states:
            x = sdef.structure
            histories = enumerate_attainable(spec, x, cfg).histories
            assert len(histories) > 700
            ev = spec.evaluator(x)
            for xi in histories:
                for rule in guarded:
                    assert holds(ev, xi, rule.guard) == reference_holds(spec, x, xi, rule.guard), rule.name
                assert causes(spec, x, xi) == reference_causes(spec, x, xi)
                assert issued(spec, x, xi) == reference_issued(spec, x, xi)
                assert verdict(spec, x, xi) == reference_verdict(spec, x, xi)
                assert update_set(spec, x, xi) == reference_update_set(spec, x, xi)

    def test_self_referencing_template_raises(self):
        spec = self_referencing_confirm()
        x = spec.state("X0")
        tie = h(("offer0", "yes", 0), ("offer1", "yes", 0), ("choose", "client0", 1))
        for semantics in (causes, verdict, reference_causes, reference_verdict):
            with pytest.raises(InstantiationError, match="references itself"):
                semantics(spec, x, tie)
        assert causes(spec, x, EMPTY_HISTORY) == reference_causes(spec, x, EMPTY_HISTORY)


class TestCompiledGuards:
    def test_self_referencing_template_raises_at_evaluation(self):
        spec = self_referencing_confirm()
        ev = spec.evaluator(spec.state("X0"))
        guard = Or(Start(), Answered("confirm"))
        assert holds(ev, EMPTY_HISTORY, guard)  # compiled; the atom is not reached
        with pytest.raises(InstantiationError, match="references itself"):
            holds(ev, h(("offer0", "no", 0)), guard)

    def test_missing_template_raises_at_evaluation(self, broker, broker_state):
        ev = broker.evaluator(broker_state)
        guard = Or(Start(), ReplyEq("ghost", App("yes")))
        assert holds(ev, EMPTY_HISTORY, guard)
        with pytest.raises(ModelError, match="no query template named 'ghost'"):
            holds(ev, h(("offer0", "no", 0)), guard)

    @settings(max_examples=200, deadline=None)
    @given(guards(), st.lists(st.sampled_from(broker_histories()), min_size=1, max_size=25))
    def test_random_guards_match_the_reference(self, guard, histories):
        spec, x = BROKER, BROKER.state("X0")
        ev = spec.evaluator(x)
        for xi in histories:
            assert outcome(holds, ev, xi, guard) == outcome(reference_holds, spec, x, xi, guard)
