"""Exit-code contract of the command line, run in-process through `dispatch`."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import time

import pytest

from conftest import SCRIPTS, SPECS, broker_sym_with_peek
from interstep.cli import dispatch
from interstep.history import History

BROKER = str(SPECS / "broker.isa")
SMALL = ["--pool", "no,yes", "--max-phases", "3", "--max-domain", "4"]


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = dispatch(list(argv), out)
    return code, out.getvalue()


def write_broker_without_final_rules(tmp_path) -> str:
    lines = (SPECS / "broker.isa").read_text().splitlines(keepends=True)
    path = tmp_path / "no_finals.isa"
    path.write_text("".join(line for line in lines if not line.startswith("final ")))
    return str(path)


@pytest.mark.parametrize("spec", ["broker.isa", "broker_preferred.isa", "broker_sym.isa"])
def test_validate_shipped_spec_exits_0(spec):
    code, out = run_cli("validate", str(SPECS / spec), "--format", "machine")
    assert code == 0
    assert out.endswith("result=valid\n")


@pytest.mark.parametrize("script", ["both_no", "tie", "timeout", "yes0", "yes_then_yes"])
def test_step_to_success_exits_0(script):
    code, out = run_cli("step", BROKER, "--script", str(SCRIPTS / f"{script}.env"), "--format", "machine")
    assert code == 0
    assert out.startswith("outcome=success\n")


def test_non_equivalent_pair_exits_1():
    code, out = run_cli("equiv", BROKER, str(SPECS / "broker_preferred.isa"), *SMALL, "--format", "machine")
    assert code == 1
    assert out.startswith("equivalent=false\n")


@pytest.mark.parametrize("mode", [[], ["--weak"]], ids=["full", "weak"])
def test_equiv_of_different_vocabularies_exits_1_with_a_full_report(tmp_path, mode):
    path = tmp_path / "extra.isa"
    path.write_text((SPECS / "broker.isa").read_text().replace("dynamic owner/0", "dynamic owner/0\n  dynamic extra/0"))
    code, out = run_cli("equiv", BROKER, str(path), *SMALL, *mode, "--format", "machine")
    assert code == 1
    lines = out.splitlines()
    assert all(re.fullmatch(r"[\w.]+=.*", line) for line in lines), lines
    assert "clause.1=fail" in lines
    assert "divergence.detail=vocabularies differ; state sets differ; initial state sets differ" in lines


@pytest.mark.parametrize("dialogue", ["", "stall\n"], ids=["eof", "stall"])
def test_repl_without_answers_exits_2(monkeypatch, dialogue):
    monkeypatch.setattr(sys, "stdin", io.StringIO(dialogue))
    code, out = run_cli("repl", BROKER, "--format", "machine")
    assert code == 2
    assert out.startswith("outcome=hang\n")


def test_repl_machine_output_holds_only_key_value_lines(monkeypatch, capsys):
    lines = ["answer (offer0) = yes", "answer (nosuch) = yes", "answer (offer1) = maybe", "foo", "go"]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out = run_cli("repl", BROKER, "--format", "machine")
    assert code == 0
    assert out.startswith("outcome=success\n")
    assert all(re.fullmatch(r"[\w.]+=.*", line) for line in out.splitlines()), out
    dialogue = capsys.readouterr().err
    assert "(nosuch) is not pending" in dialogue and "commands:" in dialogue


@pytest.mark.parametrize(
    "old, new, where, word",
    [
        ("owner() := reply(choose)", "yes() := reply(choose)", "48:43", "'yes'"),
        ("witness { client0() ; client1() ; no() ; yes() }", "witness { reply(choose) }", "55:11", "'reply'"),
        ("final sale1:", "final sale0:", "39:7", "'sale0'"),
        ("no_sale: when reply(offer0) = no()", "no_sale: when reply(offer0) = $v", "41:37", "$v"),
        ("max_issued 5", "max_issued 0", "52:14", "max_issued must be at least 1"),  # was exit 3
        ("query choose = (choose)", "query choose = (choose reply(choose))", "28:30", "reads its own reply"),
    ],
    ids=["update-static", "witness-reply", "duplicate-rule", "rule-variable", "bound-zero", "template-self-reply"],
)
def test_check_rejects_what_validate_rejects(tmp_path, capsys, old, new, where, word):
    text = (SPECS / "broker.isa").read_text()
    assert text.count(old) == 1
    path = tmp_path / "bad.isa"
    path.write_text(text.replace(old, new))
    code, out = run_cli("check", str(path), *SMALL)
    assert (code, out) == (4, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and word in err, err


@pytest.mark.parametrize("command", [["check", *SMALL], ["enumerate", *SMALL], ["equiv", BROKER, *SMALL], ["validate"]])
def test_state_that_breaks_a_logic_convention_exits_4_at_the_state(tmp_path, capsys, command):
    path = tmp_path / "eq.isa"
    override = "  interp yes () = yes\n  interp eq (yes no) = true\n"
    path.write_text((SPECS / "broker.isa").read_text().replace("  interp yes () = yes\n", override))
    assert run_cli(command[0], str(path), *command[1:]) == (4, "")
    err = capsys.readouterr().err
    assert err.startswith("error: 18:1: state 'X0': eq at (yes no) is 'true', but the convention gives 'false'"), err


# broker.isa with an update rule that reads the reply to (choose) when only (timeout) may be answered
EARLY = (("update sell0:", "update early: when answered(timeout) owner() := reply(choose)\nupdate sell0:"),)
# broker.isa with an update rule that gives a relational symbol a non-Boolean value
SOLD = (
    ("  dynamic owner/0\n", "  dynamic owner/0\n  dynamic relational sold/0\n"),
    ("update sell0:", "update mark: when reply(offer0) = yes() sold() := client0()\nupdate sell0:"),
)
# broker.isa with an update rule that reads the reply to (choose), which no history has, at the finals
# where offer0 is accepted, and an issue rule that reads it at the finals where both offers are declined
EARLY_AND_LATE = (
    ("update sell0:", "update early: when reply(offer0) = yes() and answered(offer1) owner() := reply(choose)\nupdate sell0:"),
    ("issue tie:", "issue late: when reply(offer0) = no() and reply(offer1) = no() emit (choose reply(choose))\nissue tie:"),
)


def write_broker_with(tmp_path, edits, name: str = "edited.isa") -> str:
    text = (SPECS / "broker.isa").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_on(path: str, command: list[str], base: str = BROKER) -> tuple[int, str]:
    """Run a command on a spec; a `SPEC` argument stands for the spec again.

    A `BASE` argument stands for a spec with the same vocabulary that lacks the
    edit; a command that names `BASE` places `SPEC` itself.
    """
    args = [{"SPEC": path, "BASE": base}.get(a, a) for a in command[1:]]
    return run_cli(command[0], *(args if "BASE" in command else [path, *args]))


# equiv against the spec itself, and against its base in both orders: the rule error sits at a
# history attainable in both, whichever order the walk evaluates it in
EQUIV = [["equiv", "SPEC", *SMALL], ["equiv", "SPEC", "BASE", *SMALL], ["equiv", "BASE", "SPEC", *SMALL]]


@pytest.mark.parametrize(
    "command",
    [
        ["step", "--script", str(SCRIPTS / "yes0.env")],
        ["run", "--script", str(SCRIPTS / "yes0.env"), "--steps", "2"],
        ["check", *SMALL],  # was exit 0, result=conforming
        *EQUIV,  # equiv against itself was exit 0
    ],
)
def test_update_to_a_non_boolean_relational_value_exits_4(tmp_path, capsys, command):
    path = write_broker_with(tmp_path, SOLD)
    # validate reads the closed value in every declared state (was exit 0, result=valid)
    assert run_cli("validate", path, "--format", "machine") == (
        4,
        "diagnostics=1\n"
        "error.update-relational=45:1: rule 'mark' gives relational symbol 'sold' the non-Boolean value 'client0' in state 'X0'\n"
        "result=invalid\n",
    )
    # broker.isa with the relational symbol declared: without it no state is shared, and equiv fails clause 1
    assert run_on(path, command, write_broker_with(tmp_path, SOLD[:1], "base.isa")) == (4, "")
    # the rule's position, then the history: every command meets the rule first at a lone yes to offer0
    assert capsys.readouterr().err == (
        "error: 45:1: update rule 'mark' fired but relational symbol 'sold' takes the non-Boolean value 'client0' "
        "in sold() at { (offer0) -> yes @0 }\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["check", *SMALL],
        *EQUIV,
        ["step", "--script", str(SCRIPTS / "timeout.env")],
        ["run", "--script", str(SCRIPTS / "timeout.env"), "--steps", "2"],
    ],
    ids=["check", "equiv", "equiv-broker", "broker-equiv", "step", "run"],
)
def test_update_rule_reading_an_unanswered_reply_exits_4(tmp_path, capsys, command):
    assert run_on(write_broker_with(tmp_path, EARLY), command) == (4, "")
    # step and run end where the script answers the timeout with t; check and equiv meet the rule first at a no
    reply = "t" if command[0] in ("step", "run") else "no"
    assert capsys.readouterr().err == (
        f"error: 44:1: update rule 'early' fired but mentions an unanswered reply at {{ (timeout) -> {reply} @0 }}\n"
    )


@pytest.mark.parametrize("command", [["check"], ["equiv", "SPEC", "BASE"]], ids=["check", "equiv"])
def test_update_rule_error_names_the_least_member_of_its_class(tmp_path, capsys, command):
    """The reply to (timeout) is compared with nothing, so its five values are one class, whose least member the
    error names: there the rule meets the missing reply to (choose) first."""
    pool = ["--pool", "client0,client1,no,t,yes"]
    assert run_on(write_broker_with(tmp_path, EARLY), [*command, *pool]) == (4, "")
    assert capsys.readouterr().err == (
        "error: 44:1: update rule 'early' fired but mentions an unanswered reply at { (timeout) -> client0 @0 }\n"
    )


def test_check_classifies_every_final_before_reading_issued_sets(tmp_path, capsys):
    """Check classifies every final history of a state before the bounds section builds an issued set, so the update
    rule's error comes first, although the issue rule fails at an earlier history."""
    code = run_on(write_broker_with(tmp_path, EARLY_AND_LATE), ["check", "--pool", "no,yes", "--max-phases", "2"])
    assert code == (4, "")
    assert capsys.readouterr().err == (
        "error: 45:1: update rule 'early' fired but mentions an unanswered reply at { (offer0) -> yes @0 ; (offer1) -> no @0 }\n"
    )


@pytest.mark.parametrize("command", [["enumerate", BROKER], ["check", BROKER], ["equiv", BROKER, BROKER]], ids=["enumerate", "check", "equiv"])
def test_an_empty_pool_option_is_a_usage_error(capsys, command):
    """`--pool=` names the one element '', as `--pool=,` does; it does not mean the whole base set (was exit 0)."""
    for pool in ("--pool=", "--pool=,"):
        assert run_cli(*command, pool, "--format", "machine") == (4, "")
        assert capsys.readouterr().err == "error: reply pool elements [''] are not in the base set\n"


def test_update_rule_that_fires_only_before_the_end_passes_check_with_iso(tmp_path, capsys):
    """The isomorphism and witness sections compare update sets of successful finals only (was exit 4 at
    { (offer0) -> no @0 }, where no other command builds an update set)."""
    (tmp_path / "peek.isa").write_text(broker_sym_with_peek())
    path, bounds = str(tmp_path / "peek.isa"), ["--pool", "no,yes", "--max-phases", "2"]
    code, out = run_cli("check", path, "--iso", str(SPECS / "swap.iso"), *bounds, "--format", "machine")
    assert (code, capsys.readouterr().err) == (0, "")
    assert out.endswith("result=conforming\n")
    assert run_cli("check", path, *bounds)[0] == 0
    assert run_cli("equiv", path, path, *bounds)[0] == 0
    assert run_cli("enumerate", path, "--state", "X0", *bounds)[0] == 0
    for script in sorted(SCRIPTS.glob("*.env")):
        step = ["--state", "X0", "--script", str(script), "--format", "machine"]
        assert run_cli("step", path, *step) == run_cli("step", str(SPECS / "broker_sym.isa"), *step), script.name


# broker.isa with an issue rule whose query reads the reply to (choose), which no history has at the start
ASKING = (("issue ask_clock: when start emit (timeout)", "issue ask_clock: when start emit (timeout reply(choose))"),)


@pytest.mark.parametrize(
    "command",
    [
        ["check", *SMALL],
        ["enumerate", *SMALL],
        ["equiv", "SPEC", *SMALL],
        ["step", "--script", str(SCRIPTS / "yes0.env")],
        ["run", "--script", str(SCRIPTS / "yes0.env"), "--steps", "2"],
    ],
    ids=["check", "enumerate", "equiv", "step", "run"],
)
def test_issue_rule_reading_an_unanswered_reply_exits_4(tmp_path, capsys, command):
    assert run_on(write_broker_with(tmp_path, ASKING), command) == (4, "")
    assert capsys.readouterr().err == (
        "error: 35:1: issue rule 'ask_clock' fired but its query mentions an unanswered reply at { }\n"
    )


@pytest.mark.parametrize("edits", [EARLY, SOLD], ids=["early", "sold"])
def test_enumerate_builds_no_update_set(tmp_path, edits):
    """Attainability reads finality only, so a faulty update rule does not stop `enumerate`."""
    code, out = run_cli("enumerate", write_broker_with(tmp_path, edits), *SMALL, "--format", "machine")
    assert code == 0
    assert out == run_cli("enumerate", BROKER, *SMALL, "--format", "machine")[1]
    assert "history={ (offer0) -> yes @0 }" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["step", BROKER, "--script", str(SCRIPTS / "yes0.env"), "--max-phases", "-3"],  # was exit 2
        ["repl", BROKER, "--max-phases", "-1"],
        ["run", BROKER, "--script", str(SCRIPTS / "yes0.env"), "--steps", "-1"],  # was exit 0
        ["run", BROKER, "--script", str(SCRIPTS / "yes0.env"), "--steps", "1", "--max-phases", "-1"],
    ],
    ids=["step-max-phases", "repl-max-phases", "run-steps", "run-max-phases"],
)
def test_negative_count_exits_4(capsys, argv):
    assert run_cli(*argv) == (4, "")
    assert "is negative" in capsys.readouterr().err


def test_stalled_step_exits_2():
    code, out = run_cli("step", BROKER, "--script", str(SCRIPTS / "no1_stall.env"), "--format", "machine")
    assert code == 2
    assert out.startswith("outcome=hang\n")


def test_failed_conformance_report_exits_3(tmp_path):
    spec = write_broker_without_final_rules(tmp_path)
    code, out = run_cli("check", spec, *SMALL, "--strict", "--format", "machine")
    assert code == 3
    assert "step-a=fail" in out.splitlines()
    assert out.endswith("result=nonconforming\n")
    assert run_cli("check", spec, *SMALL)[0] == 0


def test_parse_error_exits_4(tmp_path, capsys):
    path = tmp_path / "broken.isa"
    path.write_text((SPECS / "broker.isa").read_text().replace(" emit (offer0)", ""))
    assert run_cli("validate", str(path))[0] == 4
    assert "error:" in capsys.readouterr().err


def test_unreadable_path_exits_4(tmp_path, capsys):
    assert run_cli("validate", str(tmp_path / "missing.isa"))[0] == 4
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("file_arg", ["spec", "--script", "--iso"])
def test_file_that_is_not_utf8_exits_4(tmp_path, capsys, file_arg):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"algorithm x\xff\n")
    argv = {
        "spec": ["validate", str(bad)],
        "--script": ["step", BROKER, "--script", str(bad)],
        "--iso": ["check", str(SPECS / "broker_sym.isa"), "--iso", str(bad), *SMALL],
    }[file_arg]
    assert run_cli(*argv)[0] == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "broker.isa"],
        ["validate", "broker.isa", "--format", "machine"],
        ["step", "broker.isa", "--script", "tie.env", "--format", "machine"],
        ["check", "broker_sym.isa", "--iso", "swap.iso", "--pool", "no,yes", "--max-phases", "2", "--format", "machine"],
    ],
    ids=["validate", "validate-machine", "step", "check-iso"],
)
def test_a_utf8_byte_order_mark_is_read_past(tmp_path, capsys, argv):
    """Each file given with a byte-order mark in front reads as the file without it (was exit 4 at 1:1)."""
    originals = {path.name: path for path in (*SPECS.glob("*.isa"), *SPECS.glob("*.iso"), *SCRIPTS.glob("*.env"))}
    for name in argv[1:]:
        if name in originals:
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + originals[name].read_bytes())
    plain = run_cli(*(str(originals.get(a, a)) for a in argv))
    assert plain[0] == 0
    assert run_cli(*(str(tmp_path / a) if a in originals else a for a in argv)) == plain
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "iso, span, word",
    [
        ("iso X0 Y0 { client0 -> client1 -> x }", "1:32", "'->'"),  # was exit 3: not an isomorphism
        ("iso X0 Y0 { client0 -> client1 ; client1 -> client0 ; nosuch -> client0 }", "1:55", "'nosuch'"),  # was exit 0
        ("iso X0 Y0 { client0 -> client0 ; client0 -> client1 ; client1 -> client0 }", "1:34", "'client0'"),  # was exit 0
        ("iso X0 Nope { }", "1:8", "'Nope'"),  # was exit 4 with no position
    ],
)
def test_malformed_iso_file_exits_4_at_the_offending_word(tmp_path, capsys, iso, span, word):
    path = tmp_path / "bad.iso"
    path.write_text(iso + "\n")
    argv = ["check", str(SPECS / "broker_sym.isa"), "--iso", str(path), "--pool", "no,yes", "--max-phases", "2"]
    assert run_cli(*argv)[0] == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {span}: ") and word in err, err


def test_unknown_option_exits_4():
    assert run_cli("validate", BROKER, "--jobs", "2")[0] == 4


def test_deeply_nested_guard_exits_4(tmp_path, capsys):
    path = tmp_path / "deep.isa"
    deep = "issue ask0: when " + "not " * 4000 + "start"
    path.write_text((SPECS / "broker.isa").read_text().replace("issue ask0: when start", deep))
    assert run_cli("validate", str(path))[0] == 4
    assert "nesting deeper than" in capsys.readouterr().err


def write_broker_with_ask0_guard(tmp_path, guard: str) -> str:
    path = tmp_path / "chain.isa"
    path.write_text((SPECS / "broker.isa").read_text().replace("issue ask0: when start", f"issue ask0: when {guard}"))
    return str(path)


@pytest.mark.parametrize("command", [["validate"], ["enumerate", *SMALL], ["check", *SMALL]])
def test_long_and_chain_exits_4(tmp_path, capsys, command):
    path = write_broker_with_ask0_guard(tmp_path, " and ".join(["start"] * 3000))
    assert run_cli(command[0], path, *command[1:])[0] == 4
    assert "nesting deeper than" in capsys.readouterr().err


def test_short_and_chain_validates_and_enumerates(tmp_path):
    path = write_broker_with_ask0_guard(tmp_path, " and ".join(["start"] * 50))
    assert run_cli("validate", path)[0] == 0
    code, out = run_cli("enumerate", path, *SMALL, "--format", "machine")
    assert code == 0
    assert out == run_cli("enumerate", BROKER, *SMALL, "--format", "machine")[1]


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_enumerate_builds_one_history_per_class_node(monkeypatch, fmt):
    """The listing writes each class node's members as text: the walk builds a `History` for each of broker's 101
    class nodes but the root, where the listing of 3,209 histories used to build 3,310."""
    built = []
    original = History.__post_init__
    monkeypatch.setattr(History, "__post_init__", lambda xi: built.append(1) or original(xi))
    out = io.StringIO()
    assert dispatch(["enumerate", BROKER, "--format", fmt], out) == 0
    monkeypatch.undo()
    assert len(built) == 101
    assert out.getvalue() == run_cli("enumerate", BROKER, "--format", fmt)[1]
    assert out.getvalue().count("\n") == 3209 + (2 if fmt == "machine" else 1)


def write_broker_with_owner_arity(tmp_path, arity: str) -> str:
    path = tmp_path / "owner.isa"
    path.write_text((SPECS / "broker.isa").read_text().replace("dynamic owner/0", f"dynamic owner/{arity}"))
    return str(path)


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_non_ascii_digit_exits_4(tmp_path, capsys, digit):
    path = write_broker_with_owner_arity(tmp_path, digit)
    assert run_cli("validate", path)[0] == 4
    assert f"13:17: unexpected character {digit!r}" in capsys.readouterr().err


def test_owner_of_arity_30_exits_4_at_its_updates(tmp_path, capsys):
    path = write_broker_with_owner_arity(tmp_path, "30")
    assert run_cli("validate", path)[0] == 4
    assert "44:72: 'owner' has arity 30, location lists 0 arguments" in capsys.readouterr().err


LARGE_ARITY_COMMANDS = [
    ["validate", "--format", "machine"],
    ["enumerate", *SMALL, "--format", "machine"],
    ["check", *SMALL, "--format", "machine"],
    ["step", "--script", str(SCRIPTS / "tie.env"), "--format", "machine"],
]


@pytest.mark.parametrize("command", LARGE_ARITY_COMMANDS, ids=lambda command: command[0])
def test_unused_symbol_of_arity_30_costs_nothing(tmp_path, command):
    # a dense table would need 8^30 entries; a state stores only its non-default ones
    path = tmp_path / "big.isa"
    path.write_text((SPECS / "broker.isa").read_text().replace("dynamic owner/0", "dynamic owner/0\n  dynamic big/30"))
    start = time.perf_counter()
    code, out = run_cli(command[0], str(path), *command[1:])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == run_cli(command[0], BROKER, *command[1:])


def reuse_sequence(tmp_path) -> list[list[str]]:
    no_finals = write_broker_without_final_rules(tmp_path)
    return [
        ["validate", BROKER, "--format", "machine"],
        ["validate", BROKER, "--jobs", "2"],  # usage error
        ["check", "--strict", no_finals, *SMALL],  # exit 3
        ["check", no_finals, *SMALL],  # exit 0: --strict must not carry over
        ["validate", "--strict", no_finals],
        ["validate", no_finals],
        ["check", str(SPECS / "broker_sym.isa"), "--iso", str(SPECS / "swap.iso"), *SMALL],
        ["step", BROKER, "--script", str(SCRIPTS / "tie.env")],
        ["run", BROKER, "--script", str(SCRIPTS / "yes0.env"), "--steps", "2", "--format", "machine"],
        ["enumerate", BROKER, *SMALL],
        ["equiv", BROKER, str(SPECS / "broker_preferred.isa"), "--weak", *SMALL],
        ["equiv", BROKER, str(SPECS / "broker_preferred.isa"), *SMALL, "--format", "machine"],
        ["validate"],  # usage error: no spec
    ]


FRESH = "import sys\nfrom interstep.cli import dispatch\nsys.exit(dispatch(sys.argv[1:]))"


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # the argparse parser is built once per process; no call may see an earlier one's options
    env = {**os.environ, "PYTHONPATH": str(SPECS.parent / "src")}
    codes = []
    for argv in reuse_sequence(tmp_path):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        fresh = subprocess.run([sys.executable, "-c", FRESH, *argv], capture_output=True, text=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 1, 1, 4]
