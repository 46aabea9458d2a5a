"""Phased step execution against pluggable environments, plus a run driver.

One step starts from the empty history.  At each phase boundary the executor
evaluates the verdict; if the history is final it stops (computing the update
set and next state on success), otherwise it asks the environment for a batch
of replies to pending queries and absorbs it as one simultaneity class.  The
executor stops at the first final prefix, so the realized history is always
attainable.  A Stall from the environment, or exceeding the phase budget,
ends the step as a Hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence, TextIO

from . import dsl
from .errors import EngineError
from .history import EMPTY_HISTORY, History, Query, append_class, format_history, format_query, query_sort_key
from .model import AlgorithmSpec, verdict as compute_verdict
from .structure import Structure, Update, apply_updates, format_structure, format_update, update_sort_key


class ExecutionError(EngineError):
    """Executor misuse: a bad start state, or an environment that breaks the protocol."""


class EnvironmentProtocolError(ExecutionError):
    """The environment returned an empty batch, a non-pending query, or a bad reply."""


class Stall:
    """Environment response meaning: no replies will come."""

    _instance: "Stall | None" = None

    def __new__(cls) -> "Stall":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "STALL"


STALL = Stall()

Batch = Mapping[Query, str]


class Environment(Protocol):
    def next_batch(self, state: Structure, history: History, pending: frozenset[Query]) -> Batch | Stall:
        """Answer some pending queries (nonempty, replies in the base set) or stall."""
        ...


class ScriptedEnvironment:
    """Replays a fixed list of batches; an exhausted script stalls."""

    def __init__(self, batches: Sequence[Batch | Stall]):
        self.batches = list(batches)
        self.cursor = 0

    def next_batch(self, state: Structure, history: History, pending: frozenset[Query]) -> Batch | Stall:
        if self.cursor >= len(self.batches):
            return STALL
        batch = self.batches[self.cursor]
        self.cursor += 1
        return batch


class InteractiveEnvironment:
    """Reads batches from a console; the human plays the environment.

    Commands: `answer (query) = element` stages one reply, `go` submits the
    staged replies as one simultaneous batch, `stall` gives up.  Prompts and
    complaints go to `dialogue` (the CLI passes stderr), so the stream that
    carries the trace holds nothing else.
    """

    def __init__(self, stdin: TextIO, dialogue: TextIO):
        self.stdin = stdin
        self.dialogue = dialogue

    def next_batch(self, state: Structure, history: History, pend: frozenset[Query]) -> Batch | Stall:
        w = self.dialogue.write
        w("pending: " + " ".join(format_query(q) for q in sorted(pend, key=query_sort_key)) + "\n")
        staged: dict[Query, str] = {}
        while True:
            w("> ")
            self.dialogue.flush()
            line = self.stdin.readline()
            if not line:
                return STALL
            words = line.strip().split()
            if not words:
                continue
            if words[0] == "stall":
                return STALL
            if words[0] == "go":
                if not staged:
                    w("no answers staged; use `answer (query) = element` first\n")
                    continue
                return staged
            if words[0] == "answer" and "=" in line:
                head, _, value = line.partition("=")
                try:
                    q = dsl.parse_query(head.strip()[len("answer") :])
                except EngineError as exc:
                    w(f"cannot read query: {exc}\n")
                    continue
                if q not in pend:
                    w(f"{format_query(q)} is not pending\n")
                    continue
                reply = value.strip()
                if reply not in state.elements:
                    w(f"{reply!r} is not an element of the base set\n")
                    continue
                staged[q] = reply
                continue
            w("commands: answer (query) = element | go | stall\n")


# --- Step traces -------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRecord:
    """Issued queries at the phase boundary, and the batch that was absorbed."""

    issued: frozenset[Query]
    batch: tuple[tuple[Query, str], ...]

    @property
    def batch_map(self) -> dict[Query, str]:
        return dict(self.batch)


@dataclass(frozen=True)
class Outcome:
    kind: str  # "success" | "fail" | "hang"
    detail: str | None = None


@dataclass(frozen=True)
class StepTrace:
    phases: tuple[PhaseRecord, ...]
    final_history: History
    outcome: Outcome
    delta: frozenset[Update] | None
    next_state: Structure | None
    pending_at_stop: frozenset[Query]


def step(spec: AlgorithmSpec, x: Structure, env: Environment, max_phases: int = 64) -> StepTrace:
    """Execute one step from state x against the environment."""
    if not spec.has_state(x):
        raise ExecutionError("step must start from a declared state")
    return _execute(spec, x, env, max_phases)


def _execute(spec: AlgorithmSpec, x: Structure, env: Environment, max_phases: int) -> StepTrace:
    ev = spec.evaluator(x)
    # the history so far and its parent's issued set, handed on as the walk hands it (`analysis._walk`)
    xi, before = EMPTY_HISTORY, frozenset()
    phases: list[PhaseRecord] = []

    def trace(outcome: Outcome, delta=None, nxt=None, pend=frozenset()) -> StepTrace:
        return StepTrace(tuple(phases), xi, outcome, delta, nxt, pend)

    while True:
        issued = ev.open_issued(xi, before)
        if issued is None:
            v = compute_verdict(spec, x, xi, final=True)
            if v.is_success:
                return trace(Outcome("success"), delta=v.updates, nxt=apply_updates(x, v.updates))
            return trace(Outcome("fail", v.reason))
        pend = issued.difference(xi.answers)
        if xi.length >= max_phases:
            return trace(Outcome("hang", f"no final history within {max_phases} phases"), pend=pend)
        batch = env.next_batch(x, xi, pend)
        if isinstance(batch, Stall):
            return trace(Outcome("hang", "environment stalled"), pend=pend)
        if not batch:
            raise EnvironmentProtocolError("environment returned an empty batch")
        for q, r in batch.items():
            if q not in pend:
                raise EnvironmentProtocolError(f"batch answers non-pending query {format_query(q)}")
            if r not in x.elements:
                raise EnvironmentProtocolError(f"reply {r!r} to {format_query(q)} is not in the base set")
        phases.append(PhaseRecord(issued, tuple(sorted(batch.items(), key=lambda kv: query_sort_key(kv[0])))))
        xi, before = append_class(xi, batch), issued


def run(
    spec: AlgorithmSpec,
    x0: Structure,
    env_factory: Callable[[], Environment],
    max_steps: int,
    *,
    max_phases: int = 64,
    stop_on_fixpoint: bool = False,
) -> list[tuple[Structure, StepTrace]]:
    """Iterate steps, threading each next state into a fresh environment.

    Only the start state must be declared (and initial); updated states are
    states by construction even when the declared list does not include them.
    """
    if not any(spec.state(n) == x0 for n in spec.initial):
        raise ExecutionError("run must start from an initial state")
    out: list[tuple[Structure, StepTrace]] = []
    x = x0
    for _ in range(max_steps):
        tr = _execute(spec, x, env_factory(), max_phases)
        out.append((x, tr))
        if tr.outcome.kind != "success":
            break
        if stop_on_fixpoint and tr.next_state == x:
            break
        x = tr.next_state
    return out


# --- Script files --------------------------------------------------------------


def parse_script(text: str) -> list[Batch | Stall]:
    """Parse a script: `phase { (q) -> reply ; ... }` blocks and `stall`s (grammar in `dsl`)."""
    return [STALL if batch is None else batch for batch in dsl.parse_script(text)]


# --- Trace rendering -------------------------------------------------------------

EXIT_CODES = {"success": 0, "fail": 1, "hang": 2}


def format_trace(trace: StepTrace, fmt: str = "human") -> str:
    if fmt == "machine":
        return _format_trace_machine(trace)
    lines: list[str] = []
    for i, ph in enumerate(trace.phases):
        lines.append(f"phase {i}:")
        lines.append("  issued: " + " ".join(format_query(q) for q in sorted(ph.issued, key=query_sort_key)))
        body = " ; ".join(f"{format_query(q)} -> {r}" for q, r in ph.batch)
        lines.append("  batch: { " + body + " }")
    lines.append("history: " + format_history(trace.final_history))
    if trace.outcome.kind == "success":
        lines.append("verdict: success")
        delta = " ; ".join(format_update(u) for u in sorted(trace.delta, key=update_sort_key))
        lines.append("delta: " + (delta if delta else "(empty)"))
        lines.append("next-state:")
        for ln in format_structure(trace.next_state).splitlines():
            lines.append("  " + ln)
    elif trace.outcome.kind == "fail":
        lines.append(f"verdict: fail ({trace.outcome.detail})")
    else:
        lines.append(f"outcome: {trace.outcome.kind} ({trace.outcome.detail})")
        if trace.pending_at_stop:
            lines.append(
                "pending: " + " ".join(format_query(q) for q in sorted(trace.pending_at_stop, key=query_sort_key))
            )
    return "\n".join(lines) + "\n"


def _format_trace_machine(trace: StepTrace) -> str:
    lines = [f"outcome={trace.outcome.kind}"]
    if trace.outcome.detail:
        lines.append(f"detail={trace.outcome.detail}")
    lines.append(f"phases={len(trace.phases)}")
    for i, ph in enumerate(trace.phases):
        lines.append(f"phase.{i}.issued=" + " ".join(format_query(q) for q in sorted(ph.issued, key=query_sort_key)))
        lines.append(f"phase.{i}.batch=" + " ; ".join(f"{format_query(q)} -> {r}" for q, r in ph.batch))
    lines.append("history=" + format_history(trace.final_history))
    if trace.delta is not None:
        delta = " ; ".join(format_update(u) for u in sorted(trace.delta, key=update_sort_key))
        lines.append("delta=" + delta)
    if trace.pending_at_stop:
        lines.append("pending=" + " ".join(format_query(q) for q in sorted(trace.pending_at_stop, key=query_sort_key)))
    return "\n".join(lines) + "\n"
