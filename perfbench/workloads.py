"""The benchmark's workloads: rounds of `interstep` CLI ops on fresh spec texts.

A workload is a fixed list of ops, a round.  Each op names its expected
answer by a key (see `expected.json`) and its argv, where a `Spec(name)`
stands for a freshly disguised copy of that machine (see `specgen.disguise`).
Every op of a run gets its own disguised text, so no memo entry keyed on a
spec carries from one op to the next and each op costs what a fresh CLI
command costs.  The seed picks names, rule order and op order, never sizes.

Sizes are chosen so that no op takes much more than half a second and a
round about 3 s or less, so that a run holds several groups of rounds, each
with its own hash order (see `run.py`).  A `check` op takes 0.2 to 0.4 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from specgen import broker_text, disguise

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
SCRIPTS = sorted(p.name for p in (SPECS / "scripts").glob("*.env"))
POOL4 = "client0,no,t,yes"
POOL5 = "client0,client1,no,t,yes"
SMALL = ("--max-phases", "3", "--max-domain", "4")
SMALLER = ("--max-phases", "3", "--max-domain", "3")
# broker_n sizes in a session round; each size appears SESSION_REPEATS times.
SESSION_SIZES = (2, 3, 4)
SESSION_REPEATS = 4


@dataclass(frozen=True)
class Spec:
    """Placeholder in an op's argv for a fresh disguised copy of a machine."""

    name: str  # broker_<n>, broker_<n>_preferred, or a shipped spec's file stem


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]


def canonical_text(name: str) -> str:
    shipped = SPECS / f"{name}.isa"
    if shipped.is_file():
        return shipped.read_text(encoding="utf-8")
    _, n, *rest = name.split("_")
    return broker_text(int(n), preferred=rest == ["preferred"])


def _enumerate_round(rng: random.Random) -> list[tuple[str, tuple]]:
    ops = [
        ("enumerate broker_2", ("enumerate", Spec("broker_2"), "--pool", POOL4)),
        ("enumerate broker_3", ("enumerate", Spec("broker_3"), "--pool", "no,yes")),
        ("enumerate broker", ("enumerate", Spec("broker"))),
    ]
    rng.shuffle(ops)
    return ops


def _check_round(rng: random.Random) -> list[tuple[str, tuple]]:
    iso = str(SPECS / "swap.iso")
    ops = [
        ("check broker", ("check", Spec("broker"), "--pool", "no,yes", *SMALL)),
        ("check broker_sym", ("check", Spec("broker_sym"), "--iso", iso, "--pool", "no,yes", *SMALLER)),
        ("check broker_2", ("check", Spec("broker_2"), "--pool", "no,t,yes", *SMALLER)),
    ]
    rng.shuffle(ops)
    return ops


def _equiv_round(rng: random.Random) -> list[tuple[str, tuple]]:
    pairs = [
        ("broker_2 reordered", (Spec("broker_2"), Spec("broker_2"), "--pool", POOL4)),
        ("broker_2 preferred", (Spec("broker_2"), Spec("broker_2_preferred"), "--pool", POOL4)),
        ("broker broker_preferred", (Spec("broker"), Spec("broker_preferred"), "--pool", POOL5)),
    ]
    ops = [(f"equiv {name}", ("equiv", *args)) for name, args in pairs]
    ops += [(f"equiv --weak {name}", ("equiv", *args, "--weak")) for name, args in pairs]
    rng.shuffle(ops)
    return ops


def _session_round(rng: random.Random) -> list[tuple[str, tuple]]:
    ops = []
    for _ in range(SESSION_REPEATS):
        for n in SESSION_SIZES:
            spec = Spec(f"broker_{n}")
            ops.append((f"validate broker_{n}", ("validate", spec)))
            for script in rng.sample(SCRIPTS, len(SCRIPTS)):
                ops.append((f"step broker_{n} {script}", ("step", spec, "--script", str(SPECS / "scripts" / script))))
            tie = str(SPECS / "scripts" / "tie.env")
            ops.append((f"run broker_{n} tie.env", ("run", spec, "--script", tie, "--steps", "5")))
    return ops


ROUNDS = {
    "enumerate": _enumerate_round,
    "check": _check_round,
    "equiv": _equiv_round,
    "session": _session_round,
}


class Plan:
    """Generates the rounds of one workload from a seed, writing spec files to a directory.

    Each group of rounds (see `run.py`) draws from its own stream of the seed.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, group: int = 0):
        self.make = ROUNDS[workload]
        self.rng = random.Random(f"{workload}:{seed}" + (f":{group}" if group else ""))
        self.workdir = workdir
        self.files = 0
        self._texts: dict[str, str] = {}

    def next_round(self) -> list[Op]:
        return [Op(key, tuple(self._bind(a) for a in argv)) for key, argv in self.make(self.rng)]

    def _bind(self, arg) -> str:
        if not isinstance(arg, Spec):
            return arg
        if arg.name not in self._texts:
            self._texts[arg.name] = canonical_text(arg.name)
        self.files += 1
        path = self.workdir / f"spec{self.files}.isa"
        path.write_text(disguise(self._texts[arg.name], self.rng, f"b{self.files}"), encoding="utf-8")
        return str(path)
