"""Command-line surface: validate, step, run, repl, enumerate, check, equiv.

Exit codes: 0 success, 1 fail (or non-equivalence), 2 hang, 3 failed
conformance report, 4 usage or parse error.  Output is deterministic for
fixed inputs; `--format machine` switches to key=value lines meant for
tooling.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, dsl, execution
from .errors import EngineError
from .history import format_history
from .model import AlgorithmSpec
from .structure import Structure

USAGE_EXIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract is 4
        raise _UsageError(message)


def _count(text: str) -> int:
    """A step or phase count: an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count {value} is negative")
    return value


# Built on the first dispatch, not at import, and reused by later ones:
# parse_args returns a fresh Namespace per call.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="interstep", description="Execute and analyze interactive step machines.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("human", "machine"), default="human")

    sp = sub.add_parser("validate", help="parse and statically check a machine description")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--strict", action="store_true")
    add_common(sp)

    sp = sub.add_parser("step", help="execute one step against a scripted environment")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--state", help="state name (defaults to the sole state)")
    sp.add_argument("--script", type=Path, required=True)
    sp.add_argument("--max-phases", type=_count, default=64)
    add_common(sp)

    sp = sub.add_parser("repl", help="execute one step with a human environment")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--state")
    sp.add_argument("--max-phases", type=_count, default=64)
    add_common(sp)

    sp = sub.add_parser("run", help="execute a multi-step run, replaying the script each step")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--state", help="initial state name (defaults to the sole initial state)")
    sp.add_argument("--script", type=Path, required=True)
    sp.add_argument("--steps", type=_count, required=True)
    sp.add_argument("--max-phases", type=_count, default=64)
    sp.add_argument("--stop-on-fixpoint", action="store_true")
    add_common(sp)

    sp = sub.add_parser("enumerate", help="enumerate attainable histories of a state")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--state")
    sp.add_argument("--pool", help="comma-separated reply pool (defaults to the whole base set)")
    sp.add_argument("--max-phases", type=int, default=4)
    sp.add_argument("--max-domain", type=int, default=8)
    add_common(sp)

    sp = sub.add_parser("check", help="run the conformance report")
    sp.add_argument("spec", type=Path)
    sp.add_argument("--iso", type=Path, help="file of `iso STATE STATE { a -> b ; ... }` lines")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--pool")
    sp.add_argument("--max-phases", type=int, default=4)
    sp.add_argument("--max-domain", type=int, default=8)
    add_common(sp)

    sp = sub.add_parser("equiv", help="decide behavioral equivalence of two descriptions")
    sp.add_argument("spec_a", type=Path)
    sp.add_argument("spec_b", type=Path)
    sp.add_argument("--weak", action="store_true")
    sp.add_argument("--pool")
    sp.add_argument("--max-phases", type=int, default=4)
    sp.add_argument("--max-domain", type=int, default=8)
    add_common(sp)

    return p


def _read(path: Path) -> str:
    """A spec, script or iso file's text, less a leading byte-order mark; a file that is missing or not UTF-8 is a usage error."""
    try:
        # not the utf-8-sig codec, whose module would stay imported: about 22 KB for the process
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_spec(path: Path) -> AlgorithmSpec:
    return dsl.parse_spec(_read(path))


def _pick_state(spec: AlgorithmSpec, name: str | None, *, initial_only: bool = False) -> Structure:
    pool = sorted(spec.initial) if initial_only else list(spec.state_names)
    if name is None:
        if len(pool) == 1:
            return spec.state(pool[0])
        raise _UsageError(f"--state is required (candidates: {' '.join(pool)})")
    if name not in pool:
        raise _UsageError(f"unknown state {name!r} (candidates: {' '.join(pool)})")
    return spec.state(name)


def _config(args) -> analysis.EnumerationConfig:
    pool = tuple(sorted(args.pool.split(","))) if getattr(args, "pool", None) is not None else None
    return analysis.EnumerationConfig(reply_pool=pool, max_phases=args.max_phases, max_domain=args.max_domain)


def _cmd_validate(args, out) -> int:
    spec = _load_spec(args.spec)
    diags = dsl.validate_spec(spec, strict=args.strict)
    errors = [d for d in diags if d.severity == "error"]
    if args.format == "machine":
        out.write(f"diagnostics={len(diags)}\n")
        for d in diags:
            where = str(d.span) if d.span else "-"
            out.write(f"{d.severity}.{d.code}={where}: {d.message}\n")
        out.write("result=" + ("invalid" if errors else "valid") + "\n")
    else:
        for d in diags:
            where = f"{d.span}: " if d.span else ""
            out.write(f"{d.severity}: {where}{d.message} [{d.code}]\n")
        out.write(("invalid" if errors else "ok") + f" ({args.spec.name})\n")
    return USAGE_EXIT if errors else 0


def _cmd_step(args, out) -> int:
    spec = _load_spec(args.spec)
    x = _pick_state(spec, args.state)
    script = execution.parse_script(_read(args.script))
    trace = execution.step(spec, x, execution.ScriptedEnvironment(script), max_phases=args.max_phases)
    out.write(execution.format_trace(trace, args.format))
    return execution.EXIT_CODES[trace.outcome.kind]


def _cmd_repl(args, out) -> int:
    spec = _load_spec(args.spec)
    x = _pick_state(spec, args.state)
    env = execution.InteractiveEnvironment(sys.stdin, sys.stderr)
    trace = execution.step(spec, x, env, max_phases=args.max_phases)
    out.write(execution.format_trace(trace, args.format))
    return execution.EXIT_CODES[trace.outcome.kind]


def _cmd_run(args, out) -> int:
    spec = _load_spec(args.spec)
    x0 = _pick_state(spec, args.state, initial_only=True)
    script = execution.parse_script(_read(args.script))
    steps = execution.run(
        spec,
        x0,
        lambda: execution.ScriptedEnvironment(script),
        args.steps,
        max_phases=args.max_phases,
        stop_on_fixpoint=args.stop_on_fixpoint,
    )
    if args.format == "machine":
        out.write(f"steps={len(steps)}\n")
        for i, (_, tr) in enumerate(steps):
            out.write(f"step.{i}.outcome={tr.outcome.kind}\n")
            out.write(f"step.{i}.history={format_history(tr.final_history)}\n")
    else:
        for i, (_, tr) in enumerate(steps):
            out.write(f"== step {i}\n")
            out.write(execution.format_trace(tr, "human"))
    if not steps:
        return 0
    return execution.EXIT_CODES[steps[-1][1].outcome.kind]


def _cmd_enumerate(args, out) -> int:
    spec = _load_spec(args.spec)
    x = _pick_state(spec, args.state)
    res = analysis.enumerate_attainable(spec, x, _config(args))
    texts = res.texts()
    if args.format == "machine":
        out.write(f"count={len(texts)}\n")
        out.write(f"truncated={'true' if res.truncated else 'false'}\n")
        for text in texts:
            out.write("history=" + text + "\n")
    else:
        for text in texts:
            out.write(text + "\n")
        suffix = " (truncated)" if res.truncated else ""
        out.write(f"{len(texts)} attainable histories{suffix}\n")
    return 0


def _cmd_check(args, out) -> int:
    spec = _load_spec(args.spec)
    isos = dsl.parse_iso(_read(args.iso), spec) if args.iso else []
    report = analysis.check_postulates(spec, _config(args), isos, strict=args.strict)
    out.write(analysis.format_postulate_report(report, args.format))
    return 0 if report.passed else 3


def _cmd_equiv(args, out) -> int:
    spec_a = _load_spec(args.spec_a)
    spec_b = _load_spec(args.spec_b)
    checker = analysis.weak_equivalent if args.weak else analysis.equivalent
    report = checker(spec_a, spec_b, _config(args))
    out.write(analysis.format_equivalence_report(report, args.format))
    return 0 if report.equivalent else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "step": _cmd_step,
    "repl": _cmd_repl,
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "equiv": _cmd_equiv,
}


def dispatch(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (_UsageError, EngineError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
