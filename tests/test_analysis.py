from __future__ import annotations

import dataclasses
import gc
import importlib.util
import tracemalloc
import weakref
from itertools import product
from math import prod

import pytest

from conftest import BROKER_POOL, ROOT, SPECS, broker_sym_with_peek, broker_with_confirm, h, lq
from interstep import analysis, execution, model
from interstep.analysis import (
    AnalysisError,
    Divergence,
    EnumerationConfig,
    check_postulates,
    enumerate_attainable,
    equivalent,
    format_equivalence_report,
    format_postulate_report,
    weak_equivalent,
)
from interstep.dsl import DslError, parse_iso, parse_spec
from interstep.history import EMPTY_HISTORY, History, format_history, history_sort_key, initial_segments
from interstep.model import Answered, And, IssueRule, Unanswered, is_attainable, issued, verdict
from oracle import (
    agreement_property,
    all_bounded_histories,
    brute_force_attainable,
    brute_force_coherent,
    brute_force_step_a,
    brute_force_truncated,
    concrete_check,
    concrete_enumerate,
    concrete_walk,
    is_initial_segment,
    query_universe,
    reference_compare,
)

SMALL = EnumerationConfig(reply_pool=("yes", "no"), max_phases=3, max_domain=4)
FULL = EnumerationConfig(reply_pool=BROKER_POOL, max_phases=3, max_domain=4)
AGREEMENT = EnumerationConfig(reply_pool=("client0", "no", "t", "yes"), max_phases=3, max_domain=4)
POOL4 = EnumerationConfig(reply_pool=("client0", "no", "t", "yes"))
# a bound that cuts every shipped spec's tree
CUT = EnumerationConfig(reply_pool=BROKER_POOL, max_phases=2, max_domain=2)
# the phase bounds 1-3 against the domain bounds 1-4
TRUNCATION = [EnumerationConfig(reply_pool=("no", "t", "yes"), max_phases=p, max_domain=d) for p in (1, 2, 3) for d in (1, 2, 3, 4)]
# the fixture of each shipped spec
SHIPPED = ("broker", "broker_preferred", "broker_sym")

_specgen_module = importlib.util.spec_from_file_location("specgen", ROOT / "perfbench" / "specgen.py")
specgen = importlib.util.module_from_spec(_specgen_module)
_specgen_module.loader.exec_module(specgen)


class TestConfig:
    def test_bounds_must_be_positive(self):
        with pytest.raises(AnalysisError):
            EnumerationConfig(max_phases=0)

    def test_pool_must_lie_in_the_base(self, broker_state):
        cfg = EnumerationConfig(reply_pool=("ghost",))
        with pytest.raises(AnalysisError):
            cfg.pool_for(broker_state)

    def test_default_pool_is_the_whole_base(self, broker_state):
        assert EnumerationConfig().pool_for(broker_state) == broker_state.base


class TestEnumerate:
    def test_machine_without_issue_rules_has_only_the_empty_history(self, broker, broker_state):
        quiet = dataclasses.replace(broker, issue_rules=(), final_rules=(), update_rules=())
        res = enumerate_attainable(quiet, broker_state, SMALL)
        assert res.histories == {EMPTY_HISTORY}
        assert not res.truncated

    def test_one_phase_bound_matches_brute_force(self, broker, broker_state):
        cfg = EnumerationConfig(reply_pool=("yes", "no"), max_phases=1, max_domain=4)
        res = enumerate_attainable(broker, broker_state, cfg)
        assert res.histories == brute_force_attainable(broker, broker_state, cfg)
        # each initial query is unanswered or answered from the pool, not all unanswered
        assert sum(1 for xi in res.histories if xi.length == 1) == 3**3 - 1

    @pytest.mark.parametrize("cfg", [FULL, CUT], ids=["full", "cut"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_full_space_equals_brute_force(self, request, name, cfg):
        spec = request.getfixturevalue(name)
        for sdef in spec.states:
            res = enumerate_attainable(spec, sdef.structure, cfg)
            assert res.truncated == (cfg is CUT)
            assert res.histories == brute_force_attainable(spec, sdef.structure, cfg)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_truncation_flag_equals_the_oracle(self, request, name):
        """The flag is set exactly when an attainable history has pending queries that a bound leaves no room for."""
        spec = request.getfixturevalue(name)
        flags = set()
        for sdef in spec.states:
            for cfg in TRUNCATION:
                flag = enumerate_attainable(spec, sdef.structure, cfg).truncated
                assert flag == brute_force_truncated(spec, sdef.structure, cfg), (sdef.name, cfg)
                flags.add(flag)
        assert flags == {False, True}

    def test_all_enumerated_are_attainable(self, broker, broker_state):
        res = enumerate_attainable(broker, broker_state, SMALL)
        for xi in res.histories:
            assert is_attainable(broker, broker_state, xi)

    def test_prefix_closed(self, broker, broker_state):
        res = enumerate_attainable(broker, broker_state, SMALL)
        for xi in res.histories:
            for eta in initial_segments(xi):
                assert eta in res.histories

    def test_truncation_flag(self, broker, broker_state):
        cfg = EnumerationConfig(reply_pool=("yes", "no"), max_phases=1, max_domain=4)
        assert enumerate_attainable(broker, broker_state, cfg).truncated

    def test_domain_bound_truncates(self, broker, broker_state):
        cfg = EnumerationConfig(reply_pool=("yes", "no"), max_phases=3, max_domain=1)
        res = enumerate_attainable(broker, broker_state, cfg)
        assert res.truncated
        assert all(len(xi.domain) <= 1 for xi in res.histories)

    @pytest.mark.parametrize("pool", [None, ("no", "yes")], ids=["base", "no-yes"])
    @pytest.mark.parametrize("name", ["broker.isa", "broker_preferred.isa", "broker_sym.isa"])
    def test_enumeration_is_a_tree(self, monkeypatch, name, pool):
        """Every child is new: one append per class node but the root, so nothing needs a seen set."""
        spec = parse_spec((SPECS / name).read_text())
        cfg, calls = EnumerationConfig(reply_pool=pool), 0
        append_class = analysis.append_class

        def counting(xi, batch):
            nonlocal calls
            calls += 1
            return append_class(xi, batch)

        monkeypatch.setattr(analysis, "append_class", counting)
        for sdef in spec.states:
            x, nodes = sdef.structure, []
            analysis._walk((spec,), x, cfg, lambda xi, *_: nodes.append(xi))
            calls = 0
            res = enumerate_attainable(spec, x, cfg)
            assert calls == len(nodes) - 1 == len(set(nodes)) - 1 < len(res.histories) - 1

    @pytest.mark.parametrize("pool", [None, ("no", "yes"), BROKER_POOL, ("t",)], ids=["base", "no-yes", "broker-pool", "t"])
    @pytest.mark.parametrize("name", ["broker.isa", "broker_preferred.isa", "broker_sym.isa"])
    def test_weights_sum_to_the_concrete_count(self, name, pool):
        """A class node's weight, the product of its rows' class sizes, is the number of its members, and the weights
        add up to the concrete walk's nodes."""
        spec = parse_spec((SPECS / name).read_text())
        cfg = EnumerationConfig(reply_pool=pool)
        for sdef in spec.states:
            x, nodes = sdef.structure, []
            analysis._walk((spec,), x, cfg, lambda xi, befores, opens, rows: nodes.append((prod(map(len, rows)), rows)))
            assert all(weight == len(list(product(*rows))) for weight, rows in nodes)
            assert sum(weight for weight, _ in nodes) == len(concrete_walk((spec.evaluator(x),), cfg.pool_for(x), cfg, lambda *_: None)[0])

    @pytest.mark.parametrize("name", ["broker.isa", "broker_preferred.isa", "broker_sym.isa", "broker_3"])
    def test_is_final_agrees_with_the_verdict(self, name):
        """On a fresh evaluator and on one whose verdicts are all recorded."""
        text = specgen.broker_text(3) if name == "broker_3" else (SPECS / name).read_text()
        spec = parse_spec(text)
        for sdef in spec.states:
            x = sdef.structure
            histories = sorted(enumerate_attainable(spec, x, POOL4).histories, key=history_sort_key)
            fresh, filled = parse_spec(text), parse_spec(text)
            finality = [fresh.evaluator(x).open_issued(xi) is None for xi in histories]
            assert finality == [verdict(filled, x, xi).is_final for xi in histories]
            assert finality == [filled.evaluator(x).open_issued(xi) is None for xi in histories]
            assert True in finality and False in finality

    def test_enumeration_classifies_nothing(self, monkeypatch):
        """Enumeration decides finality only: it classifies no history and builds no update set."""
        spec = parse_spec(specgen.broker_text(3))
        x = spec.states[0].structure
        with monkeypatch.context() as patch:
            patch.setattr(model.Evaluator, "classify", lambda ev, xi: pytest.fail(f"classified {xi}"))
            patch.setattr(model.Evaluator, "update_set", lambda ev, xi: pytest.fail(f"update set built at {xi}"))
            res = enumerate_attainable(spec, x, POOL4)
        assert len(res.histories) == 7841
        # some of them are final, so a classification was there to be made
        assert 0 < sum(verdict(spec, x, xi).is_final for xi in res.histories) < len(res.histories)

    def test_the_walks_rebuild_no_prefix(self, monkeypatch):
        """Each node carries its parent's issued set, so no walk asks `model.prefix` for a parent."""
        calls = 0
        prefix = model.prefix

        def counting(xi, k):
            nonlocal calls
            calls += 1
            return prefix(xi, k)

        monkeypatch.setattr(model, "prefix", counting)
        broker = parse_spec((SPECS / "broker.isa").read_text())
        assert len(enumerate_attainable(broker, broker.state("X0"), EnumerationConfig()).histories) == 3209
        broker, preferred = (parse_spec((SPECS / name).read_text()) for name in ("broker.isa", "broker_preferred.isa"))
        # not equivalent at clause 3: the divergence names the queries its issued sets differ by
        assert equivalent(broker, preferred, EnumerationConfig()).divergence.clause == 3
        assert weak_equivalent(broker, preferred, EnumerationConfig()).divergence.clause == 3
        broker = parse_spec((SPECS / "broker.isa").read_text())
        assert check_postulates(broker, EnumerationConfig(reply_pool=("no", "yes"), max_phases=3, max_domain=4)).passed
        assert calls == 0

    def test_result_memory_per_history_is_bounded(self):
        """The live bytes of a result, with the spec and its memo tables freed, stay under 880 per history."""
        spec = parse_spec(specgen.broker_text(3))
        x = spec.states[0].structure
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = enumerate_attainable(spec, x, EnumerationConfig(reply_pool=("client0", "no", "t", "yes")))
            del spec
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(res.histories) == 7841
        assert live / len(res.histories) <= 880


class TestBruteForce:
    def test_universe_is_the_four_template_instances(self, broker, broker_state):
        universe = query_universe(broker, broker_state, ("yes", "no"))
        assert universe == {lq("offer0"), lq("offer1"), lq("timeout"), lq("choose")}

    def test_bounded_histories_respect_bounds(self, broker, broker_state):
        cfg = EnumerationConfig(reply_pool=("yes",), max_phases=2, max_domain=2)
        for xi in all_bounded_histories(broker, broker_state, cfg):
            assert xi.length <= 2 and len(xi.domain) <= 2

    @pytest.mark.parametrize("name", SHIPPED)
    def test_is_attainable_equals_the_brute_force_filter(self, request, name):
        """On every bounded history, the unattainable ones too: a point query agrees with the oracle's filter."""
        spec = request.getfixturevalue(name)
        cfg = EnumerationConfig(reply_pool=("no", "yes"), max_phases=2, max_domain=3)
        answers = []
        for sdef in spec.states:
            x = sdef.structure
            attainable = brute_force_attainable(spec, x, cfg)
            for xi in all_bounded_histories(spec, x, cfg):
                answers.append(is_attainable(spec, x, xi))
                assert answers[-1] == (xi in attainable), (sdef.name, format_history(xi))
        assert True in answers and False in answers

    def test_coherent_filter_is_a_superset_of_attainable(self, broker, broker_state):
        coherent = brute_force_coherent(broker, broker_state, SMALL)
        attainable = brute_force_attainable(broker, broker_state, SMALL)
        assert attainable <= coherent
        assert any(xi not in attainable for xi in coherent)


# broker with some final rules dropped, and the strict step-a violation count per (phases, queries) bound
STEP_A_FORMS = {
    "as-is": (lambda rules: rules, {(3, 4): 0, (2, 8): 0}),
    "no-timeout-endings": (
        lambda rules: [r for r in rules if r.name not in ("no_sale", "expired")],
        {(3, 4): 26, (2, 8): 14},
    ),
    "no-final-rules": (lambda rules: (), {(3, 4): 118, (2, 8): 58}),
    "first-final-rule": (lambda rules: rules[:1], {(3, 4): 72, (2, 8): 36}),
}


# f differs between X and Y only at b; the machine issues (r) once q is answered with b
REPLIES_SPEC = """
algorithm replies
vocabulary { static f/1 static yes/0 }
labels { p q r }
state X { base a b false true undef yes interp yes () = yes }
state Y { base a b false true undef yes interp yes () = yes interp f (b) = yes }
initial X Y
query p = (p)
query q = (q)
issue ask_p: when start emit (p)
issue ask_q: when start emit (q)
issue more: when f(reply(q)) = yes() emit (r)
bounds { max_query_len 1 max_issued 3 }
witness { f($v) }
"""

# c differs between X and Y, the witness leaves it out, and the one update writes it
UPDATES_SPEC = """
algorithm updates
vocabulary { static c/0 dynamic out/0 }
labels { p }
state X { base a b false true undef interp c () = a }
state Y { base a b false true undef interp c () = b }
initial X Y
query p = (p)
issue ask: when start emit (p)
update put: when answered(p) out() := c()
bounds { max_query_len 1 max_issued 1 }
witness { }
"""


class TestCheckPostulates:
    def test_broker_conforms(self, broker):
        report = check_postulates(broker, FULL)
        assert report.passed, format_postulate_report(report)
        assert not report.truncated

    def test_symmetrized_fixture_with_swap_isomorphism(self, broker_sym):
        isos = parse_iso((SPECS / "swap.iso").read_text(), broker_sym)
        report = check_postulates(broker_sym, FULL, isos)
        assert report.passed, format_postulate_report(report)

    def test_each_update_set_is_built_once(self, broker_sym, monkeypatch):
        # the isomorphism and witness sections read the update sets that the verdicts carry
        built: list = []
        original = model.Evaluator.update_set
        monkeypatch.setattr(model.Evaluator, "update_set", lambda ev, xi: built.append((ev.x, xi)) or original(ev, xi))
        isos = parse_iso((SPECS / "swap.iso").read_text(), broker_sym)
        report = check_postulates(broker_sym, SMALL, isos)
        assert report.passed, format_postulate_report(report)
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("peek", [False, True], ids=["broker_sym", "peek"])
    def test_update_sets_are_built_at_final_histories_only(self, monkeypatch, peek):
        """Only a successful final history has an update set, so none is built where a history is open, not
        even for an update rule that fires there and reads a reply the history lacks."""
        spec = parse_spec(broker_sym_with_peek() if peek else (SPECS / "broker_sym.isa").read_text())
        built: list = []
        original = model.Evaluator.update_set
        monkeypatch.setattr(model.Evaluator, "update_set", lambda ev, xi: built.append((ev.x, xi)) or original(ev, xi))
        # the benchmark's check of broker_sym: three phases and three queries
        cfg = EnumerationConfig(reply_pool=("no", "yes"), max_phases=3, max_domain=3)
        report = check_postulates(spec, cfg, parse_iso((SPECS / "swap.iso").read_text(), spec))
        monkeypatch.undo()
        assert report.passed, format_postulate_report(report)
        assert all(spec.evaluator(x).open_issued(xi) is None for x, xi in built)
        if not peek:
            # 25 final class nodes in each state, each classified once at its representative, where the isomorphism
            # section finds every image among Y0's: was 78 while check classified every final member (94 before that,
            # 16 of them at histories that are not final)
            assert len(built) == 50

    def test_broken_isomorphism_is_reported(self, broker_sym):
        report = check_postulates(broker_sym, SMALL, [({"client0": "client0"}, "X0", "Y0")])
        assert not report.section("isomorphism").passed

    def test_strict_mode_finds_missing_final_rules(self, broker):
        # deleting both no-sale endings leaves complete coherent histories
        # whose finality is only implicit
        gutted = dataclasses.replace(
            broker, final_rules=tuple(r for r in broker.final_rules if r.name not in ("no_sale", "expired"))
        )
        report = check_postulates(gutted, SMALL, strict=True)
        assert not report.section("step-a").passed
        lax = check_postulates(gutted, SMALL, strict=False)
        assert lax.section("step-a").passed

    @pytest.mark.parametrize("max_issued", [3, 4])
    def test_issued_and_answered_counts_meet_the_bound(self, broker, max_issued):
        """Under `no,yes` and two phases the broker issues and answers at most 4 queries: a bound of 4
        holds, and a bound of 3 names exactly the histories that issue 4, and those that answer 4."""
        cfg = EnumerationConfig(reply_pool=("no", "yes"), max_phases=2)
        x = broker.state("X0")
        attainable = enumerate_attainable(broker, x, cfg).histories
        tight = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=max_issued))
        violations = check_postulates(tight, cfg).section("bounds").violations
        counts = {"issued-count": ("issued", lambda xi: len(issued(broker, x, xi))), "domain-size": ("answered", lambda xi: len(xi.entries))}
        for code, (what, count) in counts.items():
            assert max(map(count, attainable)) == 4
            over = sorted((xi for xi in attainable if count(xi) > max_issued), key=history_sort_key)
            assert bool(over) == (max_issued == 3)
            expected = [f"state X0: [{code}] {format_history(xi)}: 4 {what} queries, bound is 3" for xi in over]
            assert [v for v in violations if f"[{code}]" in v] == expected

    def test_witness_variable_ranges_over_every_reply(self):
        """Only the second reply, b, tells X from Y through f($v), and the machine reads f at it."""
        spec = parse_spec(REPLIES_SPEC)
        cfg = EnumerationConfig(reply_pool=("a", "b"))
        assert check_postulates(spec, cfg).section("witness").passed
        # with the witness emptied, the histories where only f(b) differs are reported
        blind = check_postulates(dataclasses.replace(spec, witness=()), cfg).section("witness").violations
        assert "X vs Y at { (p) -> a @0 ; (q) -> b @0 }: [causes-mismatch] caused queries differ: (r)" in blind

    def test_update_sets_that_differ_outside_the_witness_are_reported(self):
        """X and Y differ only on c(), which the witness leaves out, and the update rule writes c()."""
        violations = check_postulates(parse_spec(UPDATES_SPEC), EnumerationConfig(reply_pool=("a", "b"))).section("witness").violations
        assert violations == tuple(
            f"X vs Y at {{ (p) -> {r} @0 }}: [updates-mismatch] update sets differ at 2 updates" for r in ("a", "b")
        )

    def test_isomorphism_must_preserve_initiality(self):
        """The swap maps X0 onto Y0, which is no longer initial: only initiality is broken."""
        spec = parse_spec((SPECS / "broker_sym.isa").read_text().replace("initial X0 Y0", "initial X0"))
        isos = parse_iso((SPECS / "swap.iso").read_text(), spec)
        assert check_postulates(spec, SMALL, isos).section("isomorphism").violations == ("X0 -> Y0: initiality is not preserved",)

    def test_too_small_declared_bound_fails(self, broker):
        tight = dataclasses.replace(broker, bounds=dataclasses.replace(broker.bounds, max_issued=2))
        report = check_postulates(tight, SMALL)
        assert not report.section("bounds").passed

    @pytest.mark.parametrize("bounds", [(3, 4), (2, 8)], ids=["3-phases-4-queries", "2-phases-8-queries"])
    @pytest.mark.parametrize("form", STEP_A_FORMS)
    def test_step_a_matches_the_brute_force_scan(self, broker, form, bounds):
        keep, strict_counts = STEP_A_FORMS[form]
        spec = dataclasses.replace(broker, final_rules=tuple(keep(broker.final_rules)))
        cfg = EnumerationConfig(reply_pool=("no", "yes"), max_phases=bounds[0], max_domain=bounds[1])
        for strict in (False, True):
            violations = check_postulates(spec, cfg, strict=strict).section("step-a").violations
            assert list(violations) == brute_force_step_a(spec, cfg, strict)
            assert len(violations) == (strict_counts[bounds] if strict else 0)

    def test_report_formats(self, broker):
        report = check_postulates(broker, SMALL)
        human = format_postulate_report(report)
        machine = format_postulate_report(report, "machine")
        assert "result: conforming" in human
        assert "result=conforming" in machine


def add_unsatisfiable_rule(spec):
    rule = IssueRule("never", And(Answered("choose"), Unanswered("choose")), spec.issue_rules[0].template)
    return dataclasses.replace(spec, issue_rules=spec.issue_rules + (rule,))


def without_rule(spec, name):
    kinds = ("issue_rules", "final_rules", "update_rules")
    kept = {kind: tuple(r for r in getattr(spec, kind) if r.name != name) for kind in kinds}
    assert sum(map(len, kept.values())) == sum(len(getattr(spec, kind)) for kind in kinds) - 1, name
    return dataclasses.replace(spec, **kept)


def broker_with_extra_symbol():
    text = (SPECS / "broker.isa").read_text().replace("dynamic owner/0", "dynamic owner/0\n  dynamic extra/0")
    return parse_spec(text)


BROKER_RULES = (
    "ask0", "ask1", "ask_clock", "tie",
    "sale0", "sale1", "sale_choice", "no_sale", "expired",
    "sell0", "sell0_first", "sell1", "sell1_first", "sell_choice",
)
# neither fires on an attainable history: a lone yes() ends the step at once
DEAD_RULES = ("sell0_first", "sell1_first")
VARIANTS = ("preferred", "extra-symbol", *(f"without-{r}" for r in BROKER_RULES))
# the default bounds and two that truncate
DIFFERENTIAL = {
    "default": POOL4,
    "one-phase": dataclasses.replace(POOL4, max_phases=1),
    "narrow": dataclasses.replace(POOL4, max_phases=3, max_domain=2),
}


def reorder_rules(spec):
    return dataclasses.replace(
        spec,
        issue_rules=tuple(reversed(spec.issue_rules)),
        final_rules=tuple(reversed(spec.final_rules)),
        update_rules=tuple(reversed(spec.update_rules)),
    )


def broker_variant(request, broker, other):
    """One of `VARIANTS`: the preferred-client spec, an extra symbol, or the broker less one rule."""
    if other == "preferred":
        return request.getfixturevalue("broker_preferred")
    if other == "extra-symbol":
        return broker_with_extra_symbol()
    return without_rule(broker, other.removeprefix("without-"))


def broker_pair(request, broker, pair):
    """A broker variant, broker_sym, or broker_N against a reordered copy or its preferred variant."""
    if pair == "sym":
        return broker, request.getfixturevalue("broker_sym")
    if pair.startswith("broker_"):
        n, other = pair.removeprefix("broker_").split("-")
        spec = parse_spec(specgen.broker_text(int(n)))
        return spec, reorder_rules(spec) if other == "reordered" else parse_spec(specgen.broker_text(int(n), preferred=True))
    return broker, broker_variant(request, broker, pair)


def issuing(broker, *names):
    """The broker's vocabulary, labels and state with only the named issue rules: final when complete."""
    rules = tuple(r for r in broker.issue_rules if r.name in names)
    return dataclasses.replace(broker, issue_rules=rules, final_rules=(), update_rules=())


class TestEquivalence:
    def test_reflexive(self, broker):
        report = equivalent(broker, broker, SMALL)
        assert report.equivalent
        assert report.divergence is None

    def test_unsatisfiable_extra_rule_changes_nothing(self, broker):
        assert equivalent(broker, add_unsatisfiable_rule(broker), SMALL).equivalent

    def test_reordered_rules_are_equivalent(self, broker):
        assert equivalent(broker, reorder_rules(broker), SMALL).equivalent

    def test_preferred_client_variant_diverges_at_the_tie(self, broker, broker_preferred):
        report = equivalent(broker, broker_preferred, FULL)
        assert not report.equivalent
        d = report.divergence
        assert d is not None
        assert d.state == "X0"
        assert d.clause in (3, 4)
        assert d.history == h(("offer0", "yes", 0), ("offer1", "yes", 0))

    @pytest.mark.parametrize("other", VARIANTS)
    def test_weak_checker_agrees_on_variants(self, request, broker, other):
        spec = broker_variant(request, broker, other)
        assert agreement_property(broker, spec, AGREEMENT)
        assert weak_equivalent(broker, spec, AGREEMENT).equivalent == (other.removeprefix("without-") in DEAD_RULES)

    def test_weak_checker_agrees_on_equivalent_pairs(self, broker):
        for mutant in (broker, add_unsatisfiable_rule(broker), reorder_rules(broker)):
            assert weak_equivalent(broker, mutant, SMALL).equivalent
            assert agreement_property(broker, mutant, SMALL)

    @pytest.mark.parametrize("checker", [equivalent, weak_equivalent])
    def test_vocabulary_mismatch_fails_clause_one(self, broker, checker):
        report = checker(broker, broker_with_extra_symbol(), SMALL)
        assert not report.equivalent
        assert [(c.clause, c.passed) for c in report.clauses] == [(1, False)]
        assert report.divergence == Divergence(None, None, 1, "vocabularies differ; state sets differ; initial state sets differ")

    def test_different_labels_fail_clause_one(self, broker):
        other = dataclasses.replace(broker, labels=broker.labels | {"extra"})
        report = equivalent(broker, other, SMALL)
        assert not report.equivalent
        assert report.divergence.clause == 1

    def test_candidate_with_strictly_larger_attainable_set_rejected_by_both(self, broker, broker_preferred):
        # the preferred variant's attainable set is strictly contained in the
        # broker's; both checkers must reject (the induction in the weak
        # checker forces attainable-set equality)
        ra = enumerate_attainable(broker, broker.state("X0"), FULL).histories
        rb = enumerate_attainable(broker_preferred, broker_preferred.state("X0"), FULL).histories
        assert rb < ra
        assert not equivalent(broker, broker_preferred, FULL).equivalent
        assert not weak_equivalent(broker, broker_preferred, FULL).equivalent

    def test_unattainable_differences_are_invisible_to_both(self, broker):
        # swapping the two first-reply-wins update rules only changes update
        # sets at sequential-yes histories, all of which are unattainable
        swapped = []
        for r in broker.update_rules:
            if r.name == "sell0_first":
                swapped.append(dataclasses.replace(r, value=__import__("interstep.structure", fromlist=["App"]).App("client1")))
            elif r.name == "sell1_first":
                swapped.append(dataclasses.replace(r, value=__import__("interstep.structure", fromlist=["App"]).App("client0")))
            else:
                swapped.append(r)
        mutant = dataclasses.replace(broker, update_rules=tuple(swapped))
        assert equivalent(broker, mutant, FULL).equivalent
        assert weak_equivalent(broker, mutant, FULL).equivalent

    @pytest.mark.parametrize("bounds", DIFFERENTIAL)
    @pytest.mark.parametrize(
        "pair", [*VARIANTS, "sym", *(f"broker_{n}-{other}" for n in (2, 3) for other in ("reordered", "preferred"))]
    )
    def test_walk_agrees_with_the_reference(self, request, broker, pair, bounds):
        """One walk of both trees reports what two enumerations and their set algebra report."""
        spec_a, spec_b = broker_pair(request, broker, pair)
        cfg = DIFFERENTIAL[bounds]
        assert equivalent(spec_a, spec_b, cfg) == reference_compare(spec_a, spec_b, cfg, weak=False)
        assert weak_equivalent(spec_a, spec_b, cfg) == reference_compare(spec_a, spec_b, cfg, weak=True)

    @pytest.mark.parametrize(
        "rules_a, rules_b, truncated",
        [
            (("ask0",), ("ask1",), False),  # one pending query each: the room of one holds both trees
            (("ask0", "ask1"), ("ask0",), True),  # two pending queries cut the first tree
            (("ask0",), ("ask0", "ask1"), True),
        ],
    )
    def test_truncation_is_decided_per_spec(self, broker, rules_a, rules_b, truncated):
        """A union of pending queries wider than the room cuts neither tree by itself."""
        spec_a, spec_b = issuing(broker, *rules_a), issuing(broker, *rules_b)
        cfg = EnumerationConfig(reply_pool=("no", "yes"), max_domain=1)
        for weak, checker in ((False, equivalent), (True, weak_equivalent)):
            report = checker(spec_a, spec_b, cfg)
            assert report.truncated == truncated
            assert report == reference_compare(spec_a, spec_b, cfg, weak)

    @pytest.mark.parametrize(
        "pair", [("preferred", "without-tie"), ("without-ask0", "without-ask1"), ("without-ask1", "without-ask_clock")], ids="+".join
    )
    def test_truncation_flag_equals_the_oracle(self, request, broker, pair):
        """Either checker's flag is the oracle's over both specs and every shared state: no union of the two cuts."""
        spec_a, spec_b = (broker_variant(request, broker, v) for v in pair)
        shared = [sdef.structure for sdef in spec_a.states if spec_b.has_state(sdef.structure)]
        for cfg in TRUNCATION:
            expected = any(brute_force_truncated(spec, x, cfg) for spec in (spec_a, spec_b) for x in shared)
            assert equivalent(spec_a, spec_b, cfg).truncated == expected == weak_equivalent(spec_a, spec_b, cfg).truncated, cfg

    def test_walk_is_a_tree(self, monkeypatch, broker, broker_preferred):
        """One append per class node of the union of the two trees but the root: a shared node is built once."""
        x = broker.state("X0")
        ra = enumerate_attainable(broker, x, FULL).histories
        rb = enumerate_attainable(broker_preferred, x, FULL).histories
        nodes, calls = [], 0
        analysis._walk((broker, broker_preferred), x, FULL, lambda xi, befores, opens, rows: nodes.append((xi, prod(map(len, rows)))))
        append_class = analysis.append_class

        def counting(xi, batch):
            nonlocal calls
            calls += 1
            return append_class(xi, batch)

        monkeypatch.setattr(analysis, "append_class", counting)
        equivalent(broker, broker_preferred, FULL)
        assert calls == len(nodes) - 1 == len(set(nodes)) - 1
        # 90 class nodes stand for the union's 806 histories
        assert (len(nodes), sum(weight for _, weight in nodes)) == (90, len(ra | rb)) == (90, 806)

    def test_report_formats(self, broker, broker_preferred):
        report = equivalent(broker, broker_preferred, FULL)
        human = format_equivalence_report(report)
        machine = format_equivalence_report(report, "machine")
        assert "not equivalent" in human
        assert "equivalent=false" in machine
        assert any(line.startswith("divergence.history=") for line in machine.splitlines())

    def test_truncated_verdict_is_labeled(self, broker):
        cfg = EnumerationConfig(reply_pool=("yes", "no"), max_phases=1, max_domain=4)
        report = equivalent(broker, broker, cfg)
        assert report.equivalent and report.truncated
        assert "equivalent up to bounds" in format_equivalence_report(report)


# edits of broker.isa that change what the rules see of a reply
CLASS_EDITS = {
    # the reply to (offer0) flows into an update value
    "flowing-update": ("update sell0:", "update keep: when answered(offer0) and reply(offer1) = no() owner() := reply(offer0)\nupdate sell0:"),
    # two replies compared with each other
    "reply-equality": ("final sale0:", "final same: when reply(offer0) = reply(offer1) succeed\nfinal sale0:"),
    # two replies compared inside a term equality
    "term-equality": ("final sale0:", "final alike: when eq(reply(offer0), reply(offer1)) = true() fail\nfinal sale0:"),
    # the reply to (timeout), compared with nothing in broker.isa, is compared with no()
    "timeout-no": ("final sale0:", "final refused: when reply(timeout) = no() fail\nfinal sale0:"),
    # against broker.isa, a value that only one side compares with: the common refinement
    "client0-offer": ("final sale0:", "final odd: when reply(offer0) = client0() fail\nfinal sale0:"),
}
# edits on top of a template that reads the reply to (choose), against broker.isa, which tells fewer replies apart:
# every reply is its own class, also where broker.isa compares it
CONFIRM_EDITS = {f"confirm-{name}": CLASS_EDITS[name] for name in ("reply-equality", "client0-offer")}
# each case's two specs: a shipped pair, broker_N against its preferred variant, an edit against broker.isa, and a
# template that reads the reply to (choose) against one that reads none, where every reply is its own class
CLASS_CASES = ("broker", "broker_preferred", "broker_sym", "broker_2", "broker_3", "broker_4", *CLASS_EDITS, "confirm", *CONFIRM_EDITS)
CLASS_POOLS = {
    "base": None,
    "client0-no-t-yes": ("client0", "no", "t", "yes"),
    "broker-pool": BROKER_POOL,
    "yes": ("yes",),
    "t": ("t",),
    "empty": (),
}


def class_case(name):
    """The two specs of a `CLASS_CASES` entry."""
    text = (SPECS / "broker.isa").read_text()
    if name in CLASS_EDITS:
        old, new = CLASS_EDITS[name]
        assert text.count(old) == 1
        return parse_spec(text.replace(old, new)), parse_spec(text)
    if name == "confirm":
        return broker_with_confirm("(confirm reply(choose))"), broker_with_confirm("(confirm)")
    if name in CONFIRM_EDITS:
        return broker_with_confirm("(confirm reply(choose))", CONFIRM_EDITS[name]), parse_spec(text)
    if name in ("broker_2", "broker_3", "broker_4"):
        n = int(name.removeprefix("broker_"))
        return parse_spec(specgen.broker_text(n)), parse_spec(specgen.broker_text(n, preferred=True))
    other = {"broker": "broker_preferred", "broker_preferred": "broker"}.get(name, name)
    return parse_spec((SPECS / f"{name}.isa").read_text()), parse_spec((SPECS / f"{other}.isa").read_text())


def class_config(name, pool):
    """The default bounds, but two phases and two queries for broker_3 and broker_4: their concrete walks at the
    default pool and bounds would take minutes (broker_4 took 19 s at two phases and three queries)."""
    if name in ("broker_3", "broker_4"):
        return EnumerationConfig(reply_pool=pool, max_phases=2, max_domain=2)
    return EnumerationConfig(reply_pool=pool)


WITNESS = "witness { client0() ; client1() ; no() ; yes() }"
NO_SALE = "final no_sale: when reply(offer0) = no() and reply(offer1) = no() succeed\n"
EXPIRED = "final expired: when answered(timeout) and not reply(offer0) = yes() and not reply(offer1) = yes() succeed\n"
SWAP = (SPECS / "swap.iso").read_text()
# at this pool σ(client0) = client1 is not a reply, so the image of a node that replies client0 is no node of Y0's
# walk, and the isomorphism section judges it by point query
NO_CLIENT1 = ("client0", "no", "t", "yes")
# check inputs at the default bounds: (spec, edits, iso file text, strict, pool or None, whether the report passes)
VIOLATING = {
    "max-issued-3": ("broker", (("max_issued 5", "max_issued 3"),), None, False, None, False),
    "no-implicit-endings": ("broker", ((NO_SALE, ""), (EXPIRED, "")), None, True, None, False),
    "blind-witness": ("broker_sym", ((WITNESS, "witness { no() }"),), None, False, None, False),
    "variable-witness": ("broker_sym", ((WITNESS, "witness { $x }"),), None, False, None, False),
    "swap": ("broker_sym", (), SWAP, False, None, True),
    "swap-without-client1": ("broker_sym", (), SWAP, False, NO_CLIENT1, True),
    "variable-witness-swap-strict-without-client1": ("broker_sym", ((WITNESS, "witness { $x }"),), SWAP, True, NO_CLIENT1, False),
    "not-an-isomorphism": ("broker_sym", (), "iso X0 Y0 { client0 -> client0 }", False, None, False),
}


def edited_spec(name, edits):
    text = (SPECS / f"{name}.isa").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return parse_spec(text)


class TestReplyClasses:
    """The class walk against the concrete walk of `oracle.concrete_walk`, which shares no class code with it."""

    @pytest.mark.parametrize("pool", CLASS_POOLS)
    @pytest.mark.parametrize("name", CLASS_CASES)
    def test_enumeration_equals_the_concrete_walk(self, name, pool):
        cfg = class_config(name, CLASS_POOLS[pool])
        for spec in class_case(name):
            for sdef in spec.states:
                got, want = enumerate_attainable(spec, sdef.structure, cfg), concrete_enumerate(spec, sdef.structure, cfg)
                assert (got.histories, got.truncated) == (want.histories, want.truncated)
                assert got.texts() == [format_history(xi) for xi in sorted(want.histories, key=history_sort_key)]

    @pytest.mark.parametrize("pool", CLASS_POOLS)
    @pytest.mark.parametrize("name", CLASS_CASES)
    def test_equivalence_equals_the_reference(self, name, pool):
        cfg = class_config(name, CLASS_POOLS[pool])
        spec_a, spec_b = class_case(name)
        assert equivalent(spec_a, spec_b, cfg) == reference_compare(spec_a, spec_b, cfg, weak=False)
        assert weak_equivalent(spec_a, spec_b, cfg) == reference_compare(spec_a, spec_b, cfg, weak=True)

    @pytest.mark.parametrize("pool", CLASS_POOLS)
    @pytest.mark.parametrize("name", CLASS_CASES)
    def test_check_equals_the_concrete_check(self, name, pool):
        cfg = class_config(name, CLASS_POOLS[pool])
        spec = class_case(name)[0]
        assert check_postulates(spec, cfg) == concrete_check(spec, cfg)

    @pytest.mark.parametrize("name", VIOLATING)
    def test_violations_equal_the_concrete_check(self, name):
        """Where a section fails, each member of a violating class node has its own line, in report order."""
        base, edits, iso, strict, pool, passed = VIOLATING[name]
        spec, cfg = edited_spec(base, edits), EnumerationConfig(reply_pool=pool)
        isos = parse_iso(iso, spec) if iso else []
        report = check_postulates(spec, cfg, isos, strict=strict)
        assert report == concrete_check(spec, cfg, isos, strict=strict)
        assert report.passed == passed

    def test_an_image_outside_the_walk_is_judged_by_point_query(self, monkeypatch):
        spec = edited_spec("broker_sym", ())
        moved = []
        monkeypatch.setattr(analysis, "verdict", lambda spec, x, xi: moved.append(xi) or verdict(spec, x, xi))
        check_postulates(spec, EnumerationConfig(reply_pool=NO_CLIENT1), parse_iso(SWAP, spec))
        assert moved and all(" -> client1 @" in format_history(xi) for xi in moved)


class TestIsoFile:
    def test_parse(self, broker_sym):
        isos = parse_iso("# swap\niso X0 Y0 { client0 -> client1 ; client1 -> client0 }\n", broker_sym)
        assert isos == [({"client0": "client1", "client1": "client0"}, "X0", "Y0")]

    def test_bad_lines_rejected(self, broker_sym):
        for text in ["iso X0 { a -> b }", "iso X0 Y0 a -> b", "iso X0 Y0 { a b }"]:
            with pytest.raises(DslError):
                parse_iso(text, broker_sym)


def test_analysed_spec_is_freed():
    """The evaluators' tables belong to the spec, so nothing keeps an analysed spec alive.

    No reference cycle holds it, its evaluators or its compiled guards either:
    dropping the last reference frees them all at once, with the cycle
    collector off.
    """
    spec = parse_spec((SPECS / "broker.isa").read_text())
    gc.disable()
    try:
        enumerate_attainable(spec, spec.state("X0"), SMALL)
        check_postulates(spec, SMALL)
        equivalent(spec, spec, SMALL)
        refs = [weakref.ref(spec), *map(weakref.ref, spec._evaluators.values())]
        refs.append(weakref.ref(spec._compiled_guards[id(spec.final_rules[0].guard)][1]))
        assert len(refs) == 3
        del spec
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_an_analysed_spec_holds_no_history():
    """The evaluators keep nothing per history: once the results are dropped, no `History` is alive while the spec lives.

    The collector is off, so a history that only it would free counts as alive.
    """
    spec = parse_spec((SPECS / "broker.isa").read_text())
    x = spec.state("X0")
    script = execution.parse_script((SPECS / "scripts" / "tie.env").read_text())
    gc.collect()
    alive = sum(isinstance(o, History) for o in gc.get_objects())
    gc.disable()
    try:
        enumerate_attainable(spec, x, SMALL)
        check_postulates(spec, SMALL)
        equivalent(spec, spec, SMALL)
        assert execution.step(spec, x, execution.ScriptedEnvironment(script)).outcome.kind == "success"
        assert verdict(spec, x, h(("offer0", "yes", 0))).is_success
        assert sum(isinstance(o, History) for o in gc.get_objects()) == alive
    finally:
        gc.enable()
