from __future__ import annotations

import io

import pytest

from conftest import SCRIPTS, broker_with_confirm, h, lq
from interstep.dsl import DslSyntaxError
from interstep.execution import (
    STALL,
    EnvironmentProtocolError,
    ExecutionError,
    InteractiveEnvironment,
    ScriptedEnvironment,
    format_trace,
    parse_script,
    run,
    step,
)
from interstep.history import EMPTY_HISTORY, append_class
from interstep.model import Evaluator, is_attainable, is_coherent, verdict, causes
from interstep.structure import update
from oracle import format_script


def scripted(*batches):
    return ScriptedEnvironment(list(batches))


def script_env(name):
    return ScriptedEnvironment(parse_script((SCRIPTS / name).read_text()))


class TestStepScenarios:
    def test_single_yes_sells_to_client0(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("yes0.env"))
        assert tr.outcome.kind == "success"
        assert len(tr.phases) == 1
        assert tr.delta == {update("owner", (), "client0")}
        assert tr.next_state.value("owner") == "client0"
        assert tr.final_history == h(("offer0", "yes", 0))

    def test_second_yes_arrives_too_late(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("yes_then_yes.env"))
        assert tr.outcome.kind == "success"
        assert len(tr.phases) == 1
        assert tr.final_history == h(("offer0", "yes", 0))
        assert tr.next_state.value("owner") == "client0"

    def test_simultaneous_yes_asks_for_a_choice(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("tie.env"))
        assert tr.outcome.kind == "success"
        assert len(tr.phases) == 2
        assert tr.delta == {update("owner", (), "client1")}
        assert lq("choose") in tr.final_history.domain

    def test_one_negative_reply_then_stall_hangs(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("no1_stall.env"))
        assert tr.outcome.kind == "hang"
        assert tr.pending_at_stop == {lq("offer0"), lq("timeout")}
        assert tr.final_history == h(("offer1", "no", 0))

    def test_both_no_succeeds_with_empty_delta(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("both_no.env"))
        assert tr.outcome.kind == "success"
        assert tr.delta == frozenset()
        assert tr.next_state == broker_state

    def test_timeout_without_positive_offer_succeeds(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("timeout.env"))
        assert tr.outcome.kind == "success"
        assert tr.delta == frozenset()

    def test_phase_budget_hangs(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("no1_stall.env"), max_phases=0)
        assert tr.outcome.kind == "hang"
        assert tr.final_history == EMPTY_HISTORY

    def test_undeclared_state_rejected(self, broker):
        from interstep.structure import apply_updates

        foreign = apply_updates(broker.state("X0"), {update("owner", (), "client0")})
        with pytest.raises(ExecutionError):
            step(broker, foreign, scripted())


class TestEnvironmentProtocol:
    def test_empty_batch_rejected(self, broker, broker_state):
        with pytest.raises(EnvironmentProtocolError):
            step(broker, broker_state, scripted({}))

    def test_non_pending_query_rejected(self, broker, broker_state):
        with pytest.raises(EnvironmentProtocolError):
            step(broker, broker_state, scripted({lq("choose"): "client0"}))

    def test_reply_outside_base_rejected(self, broker, broker_state):
        with pytest.raises(EnvironmentProtocolError):
            step(broker, broker_state, scripted({lq("offer0"): "ghost"}))

    def test_exhausted_script_stalls(self, broker, broker_state):
        tr = step(broker, broker_state, scripted())
        assert tr.outcome.kind == "hang"


class TestTraceInvariants:
    def all_traces(self, broker, broker_state):
        names = ["yes0.env", "tie.env", "no1_stall.env", "both_no.env", "timeout.env"]
        return [step(broker, broker_state, script_env(n)) for n in names]

    def test_realized_histories_are_attainable(self, broker, broker_state):
        for tr in self.all_traces(broker, broker_state):
            assert is_coherent(broker, broker_state, tr.final_history)
            if tr.outcome.kind in ("success", "fail"):
                assert is_attainable(broker, broker_state, tr.final_history)
                assert verdict(broker, broker_state, tr.final_history).is_final

    def test_history_reconstructs_from_phases(self, broker, broker_state):
        for tr in self.all_traces(broker, broker_state):
            rebuilt = EMPTY_HISTORY
            for ph in tr.phases:
                rebuilt = append_class(rebuilt, ph.batch_map)
            assert rebuilt == tr.final_history

    def test_phase_zero_issued_is_causes_of_empty(self, broker, broker_state):
        want = causes(broker, broker_state, EMPTY_HISTORY)
        for tr in self.all_traces(broker, broker_state):
            if tr.phases:
                assert tr.phases[0].issued == want

    def test_replaying_a_trace_reproduces_it(self, broker, broker_state):
        for tr in self.all_traces(broker, broker_state):
            replay = ScriptedEnvironment([ph.batch_map for ph in tr.phases])
            again = step(broker, broker_state, replay)
            if tr.outcome.kind == "hang":
                # the replay script is exhausted exactly where the original stalled
                assert again.final_history == tr.final_history
                assert again.outcome.kind == "hang"
            else:
                assert again == tr


class TestRun:
    def test_zero_steps(self, broker, broker_state):
        assert run(broker, broker_state, lambda: script_env("yes0.env"), 0) == []

    def test_replays_to_max_steps(self, broker, broker_state):
        steps = run(broker, broker_state, lambda: script_env("yes0.env"), 3)
        assert len(steps) == 3
        assert all(tr.outcome.kind == "success" for _, tr in steps)
        # each step re-issues the offers and sells again
        assert steps[1][0].value("owner") == "client0"

    def test_stop_on_fixpoint(self, broker, broker_state):
        steps = run(broker, broker_state, lambda: script_env("yes0.env"), 5, stop_on_fixpoint=True)
        # step 1 changes owner, step 2 repeats the (now trivial) sale, then stop
        assert len(steps) == 2
        assert steps[1][1].next_state == steps[1][0]

    def test_failure_terminates_the_run(self, broker, broker_state):
        import dataclasses

        from interstep.model import FinalRule, ReplyEq
        from interstep.structure import App

        failing = dataclasses.replace(
            broker,
            final_rules=broker.final_rules + (FinalRule("veto", ReplyEq("offer0", App("yes")), "fail"),),
        )
        steps = run(failing, failing.state("X0"), lambda: script_env("yes0.env"), 4)
        assert len(steps) == 1
        assert steps[0][1].outcome.kind == "fail"

    def test_hang_terminates_the_run(self, broker, broker_state):
        steps = run(broker, broker_state, lambda: script_env("no1_stall.env"), 4)
        assert len(steps) == 1
        assert steps[0][1].outcome.kind == "hang"

    def test_must_start_from_an_initial_state(self, broker, broker_state):
        from interstep.structure import apply_updates

        sold = apply_updates(broker_state, {update("owner", (), "client0")})
        with pytest.raises(ExecutionError):
            run(broker, sold, lambda: script_env("yes0.env"), 1)


class TestScriptFormat:
    def test_round_trip_bit_exact(self):
        text = "phase { (offer0) -> yes ; (offer1) -> yes }\nphase { (choose) -> client1 }\nstall\n"
        assert format_script(parse_script(text)) == text

    def test_element_query_round_trips(self):
        text = "phase { (pair #client0) -> yes }\n"
        assert format_script(parse_script(text)) == text

    def test_script_answers_a_query_that_names_an_element(self):
        # `#` marks an element inside a query's parentheses and starts a comment elsewhere
        spec = broker_with_confirm("(confirm reply(choose))")
        text = (
            "phase { (offer0) -> yes ; (offer1) -> yes }\n"
            "phase { (choose) -> client0 }  # the tie-break\n"
            "phase { (confirm #client0) -> yes }\n"
        )
        tr = step(spec, spec.state("X0"), ScriptedEnvironment(parse_script(text)))
        assert tr.outcome.kind == "success"
        assert tr.delta == {update("owner", (), "client0")}

    def test_comments_ignored(self):
        items = parse_script("# intro\nphase { (offer0) -> yes }  # sale\n")
        assert items == [{lq("offer0"): "yes"}]

    def test_multiline_phase_block(self):
        items = parse_script("phase {\n  (offer0) -> yes ;\n  (offer1) -> no\n}\n")
        assert items == [{lq("offer0"): "yes", lq("offer1"): "no"}]

    def test_phases_on_one_line(self):
        items = parse_script("phase { (offer0) -> no } phase { (offer1) -> no }")
        assert items == [{lq("offer0"): "no"}, {lq("offer1"): "no"}]

    def test_bad_lines_rejected(self):
        for text in ["phase { }", "phase { (q) yes }", "nonsense", "phase { (q) -> a ; (q) -> b }"]:
            with pytest.raises(DslSyntaxError):
                parse_script(text)

    def test_fixture_scripts_parse(self):
        for path in sorted(SCRIPTS.glob("*.env")):
            parse_script(path.read_text())


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.env")))
def test_step_reads_the_final_guards_once_per_visited_history(broker, broker_state, name, monkeypatch):
    read: list = []
    original = Evaluator.explicitly_final
    monkeypatch.setattr(Evaluator, "explicitly_final", lambda ev, xi: read.append(xi) or original(ev, xi))
    tr = step(broker, broker_state, script_env(name))
    # the empty history, one history after each phase, and nothing twice
    assert len(read) == len(set(read)) == len(tr.phases) + 1
    assert read[0] == EMPTY_HISTORY and read[-1] == tr.final_history


class TestInteractive:
    def drive(self, broker, broker_state, user_input):
        env = InteractiveEnvironment(io.StringIO(user_input), io.StringIO())
        return step(broker, broker_state, env)

    def test_single_answer_matches_scripted_trace(self, broker, broker_state):
        tr = self.drive(broker, broker_state, "answer (offer0) = yes\ngo\n")
        scripted_tr = step(broker, broker_state, script_env("yes0.env"))
        assert tr == scripted_tr

    def test_immediate_stall_hangs(self, broker, broker_state):
        tr = self.drive(broker, broker_state, "stall\n")
        assert tr.outcome.kind == "hang"
        assert tr.final_history == EMPTY_HISTORY

    def test_two_answers_form_one_simultaneous_batch(self, broker, broker_state):
        tr = self.drive(broker, broker_state, "answer (offer0) = no\nanswer (offer1) = no\ngo\n")
        assert tr.outcome.kind == "success"
        assert tr.final_history == h(("offer0", "no", 0), ("offer1", "no", 0))

    def test_non_pending_answer_is_rejected_and_reprompted(self, broker, broker_state):
        out = io.StringIO()
        env = InteractiveEnvironment(io.StringIO("answer (choose) = client0\nanswer (offer0) = yes\ngo\n"), out)
        tr = step(broker, broker_state, env)
        assert tr.outcome.kind == "success"
        assert "not pending" in out.getvalue()

    def test_eof_stalls(self, broker, broker_state):
        tr = self.drive(broker, broker_state, "")
        assert tr.outcome.kind == "hang"

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ("answer offer0 = yes", "cannot read query"),
            ("answer (offer1) = maybe", "'maybe' is not an element of the base set"),
            ("go", "no answers staged"),
            ("foo", "commands: answer (query) = element | go | stall"),
        ],
        ids=["unparsable", "outside-base", "nothing-staged", "unknown"],
    )
    def test_rejected_line_is_reprompted(self, broker, broker_state, line, complaint):
        dialogue = io.StringIO()
        env = InteractiveEnvironment(io.StringIO(line + "\nanswer (offer0) = yes\ngo\n"), dialogue)
        assert step(broker, broker_state, env) == step(broker, broker_state, script_env("yes0.env"))
        assert complaint in dialogue.getvalue()
        assert dialogue.getvalue().count("> ") == 3


class TestTraceFormat:
    def test_human_format_mentions_the_delta(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("yes0.env"))
        text = format_trace(tr)
        assert "owner() := client0" in text
        assert "verdict: success" in text

    def test_machine_format_is_line_oriented(self, broker, broker_state):
        tr = step(broker, broker_state, script_env("no1_stall.env"))
        text = format_trace(tr, "machine")
        assert "outcome=hang" in text.splitlines()[0]
        assert any(line.startswith("pending=") for line in text.splitlines())
