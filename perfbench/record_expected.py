"""Write `expected.json`: the exit code, answer lines and output digest of every op.

    python3 perfbench/record_expected.py

Runs one round of every workload with seed 0 and records, for each op key,
the exit code and the SHA-256 of its `--format machine` output.  The output
names no rule and no algorithm, so the digest holds for every seed.  Before
writing, it asserts the answers that the construction of the specs fixes:

- the enumeration sizes 421, 589 and 3,209;
- `check` gives `result=conforming`;
- `equiv` is true for a reordered copy, and false at clause 3 against the
  preferred variant;
- every generated spec validates with 0 diagnostics;
- a step on broker_2 prints exactly what the same step on the shipped
  `specs/broker.isa` prints.

Rerun it only when a change is meant to alter machine output.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from interstep import cli  # noqa: E402
from workloads import ROUNDS, SCRIPTS, SPECS, Plan  # noqa: E402

WORK = HERE.parent / ".perfbench-work"

NOT_EQUIVALENT = ["equivalent=false", "divergence.clause=3"]
ANSWERS = {
    "enumerate broker_2": ["count=421"],
    "enumerate broker_3": ["count=589"],
    "enumerate broker": ["count=3209"],
    "check broker": ["result=conforming"],
    "check broker_sym": ["result=conforming"],
    "check broker_2": ["result=conforming"],
    "equiv broker_2 reordered": ["equivalent=true"],
    "equiv --weak broker_2 reordered": ["equivalent=true"],
    "equiv broker_2 preferred": NOT_EQUIVALENT,
    "equiv --weak broker_2 preferred": NOT_EQUIVALENT,
    "equiv broker broker_preferred": NOT_EQUIVALENT,
    "equiv --weak broker broker_preferred": NOT_EQUIVALENT,
}
for n in (2, 3, 4):
    ANSWERS[f"validate broker_{n}"] = ["diagnostics=0", "result=valid"]


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.dispatch([*argv, "--format", "machine"], out)
    return code, out.getvalue()


def record() -> dict:
    expected: dict[str, dict] = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in ROUNDS:
            for op in Plan(workload, 0, Path(tmp)).next_round():
                if op.key in expected:
                    continue
                code, output = run(op.argv)
                lines = ANSWERS.get(op.key, [])
                missing = [line for line in lines if line not in output.splitlines()]
                assert not missing, f"{op.key}: {missing} not in output:\n{output}"
                expected[op.key] = {"exit": code, "lines": lines, "sha256": hashlib.sha256(output.encode()).hexdigest()}
    for script in SCRIPTS:
        argv = ("step", str(SPECS / "broker.isa"), "--script", str(SPECS / "scripts" / script))
        code, output = run(argv)
        mine = expected[f"step broker_2 {script}"]
        assert (code, hashlib.sha256(output.encode()).hexdigest()) == (mine["exit"], mine["sha256"]), script
    return dict(sorted(expected.items()))


if __name__ == "__main__":
    (HERE / "expected.json").write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
