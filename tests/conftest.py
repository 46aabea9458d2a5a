from __future__ import annotations

from pathlib import Path

import pytest

from interstep.dsl import parse_spec
from interstep.history import EMPTY_HISTORY, History, Label, Query, mk_history

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
SCRIPTS = SPECS / "scripts"

BROKER_POOL = ("client0", "client1", "no", "t", "yes")


def lq(name: str) -> Query:
    """Label-only query, the common case in the broker fixture."""
    return Query((Label(name),))


def h(*entries: tuple[str, str, int]) -> History:
    """History from (label, reply, phase) triples."""
    answers = {lq(name): reply for name, reply, _ in entries}
    phases = {lq(name): phase for name, _, phase in entries}
    return mk_history(answers, phases)


def broker_with_confirm(confirm: str):
    """broker.isa plus a `confirm` query issued after a tie-break, with parts `confirm`.

    With `(confirm reply(choose))` its instance names the chosen client, so the
    template, a rule template and the final rules that read its reply depend on
    the history.
    """
    text = (SPECS / "broker.isa").read_text()
    for old, new in (
        ("labels { choose offer0 offer1 timeout }", "labels { choose confirm offer0 offer1 timeout }"),
        ("query choose = (choose)\n", f"query choose = (choose)\nquery confirm = {confirm}\n"),
        ("issue tie:", f"issue conf: when answered(choose) emit {confirm}\nissue tie:"),
        (
            "final sale_choice: when answered(choose) succeed",
            "final sale_choice: when reply(confirm) = yes() succeed\nfinal refused: when reply(confirm) = no() fail",
        ),
        ("max_query_len 1", "max_query_len 2"),
        ("max_issued 5", "max_issued 6"),
    ):
        assert old in text
        text = text.replace(old, new)
    return parse_spec(text)


def broker_sym_with_peek() -> str:
    """broker_sym.isa plus an update rule that reads the reply to (choose) after a lone no to offer0.

    The rule fires only at histories that are not final, where no reply to
    (choose) exists: only a successful final history has an update set, so it
    is never built there.
    """
    text = (SPECS / "broker_sym.isa").read_text()
    assert text.count("\nupdate sell0:") == 1
    peek = "update peek: when reply(offer0) = no() and unanswered(offer1) and unanswered(timeout) owner() := reply(choose)"
    return text.replace("\nupdate sell0:", f"\n{peek}\nupdate sell0:")


@pytest.fixture(scope="session")
def broker():
    return parse_spec((SPECS / "broker.isa").read_text())


@pytest.fixture(scope="session")
def broker_state(broker):
    return broker.state("X0")


@pytest.fixture(scope="session")
def broker_preferred():
    return parse_spec((SPECS / "broker_preferred.isa").read_text())


@pytest.fixture(scope="session")
def broker_sym():
    return parse_spec((SPECS / "broker_sym.isa").read_text())


@pytest.fixture(scope="session")
def empty_history():
    return EMPTY_HISTORY
