"""Golden machine output: exit code and SHA-256 of `--format machine` stdout per command.

Every command runs in-process through `dispatch` on the shipped specs, with
every script in `specs/scripts/` for `step` and `run`.  The expected values
are in `golden.json`, next to this file; a change that alters any output byte
fails here.  To record them again, after a deliberate change of the output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from interstep.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")

BROKER, PREFERRED, SYM = "specs/broker.isa", "specs/broker_preferred.isa", "specs/broker_sym.isa"
SCRIPTS = sorted(f"specs/scripts/{p.name}" for p in (ROOT / "specs" / "scripts").glob("*.env"))
# each shipped spec with each of its states
SPEC_STATES = [(BROKER, []), (PREFERRED, []), (SYM, ["--state", "X0"]), (SYM, ["--state", "Y0"])]


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for spec, state in SPEC_STATES:
        out.append(["enumerate", spec, *state])
    for spec, extra in ((BROKER, []), (PREFERRED, []), (SYM, ["--iso", "specs/swap.iso"])):
        out.append(["check", spec, *extra])
        out.append(["check", spec, *extra, "--strict"])
    for a, b in ((BROKER, PREFERRED), (BROKER, BROKER), (PREFERRED, SYM)):
        out.append(["equiv", a, b])
        out.append(["equiv", a, b, "--weak"])
    for spec, state in SPEC_STATES:
        for script in SCRIPTS:
            out.append(["step", spec, *state, "--script", script])
            out.append(["run", spec, *state, "--script", script, "--steps", "3"])
    return out


def machine_output(argv: list[str]) -> tuple[int, str]:
    """Exit code and digest of the machine output; the paths are relative to the repository root."""
    out = io.StringIO()
    code = dispatch([str(ROOT / a) if a.startswith("specs/") else a for a in argv] + ["--format", "machine"], out)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def record() -> None:
    golden = {" ".join(argv): dict(zip(("exit", "sha256"), machine_output(argv))) for argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


EXPECTED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_every_case_is_recorded():
    assert sorted(EXPECTED) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_machine_output_is_unchanged(argv):
    code, digest = machine_output(argv)
    assert {"exit": code, "sha256": digest} == EXPECTED[" ".join(argv)]


if __name__ == "__main__":
    record()
