"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They check the spec generator, the recorded answers, the tracer and the
verdicts of `compare.py`; they are not part of the package's test suite and
take about fifteen seconds.
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from interstep import cli, dsl  # noqa: E402
from specgen import broker_text, disguise  # noqa: E402
from workloads import POOL4, ROUNDS, SPECS, Plan  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def dispatch(argv) -> tuple[int, str]:
    out = io.StringIO()
    return cli.dispatch([*argv, "--format", "machine"], out), out.getvalue()


@pytest.fixture(autouse=True)
def _workdir(tmp_path):
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()


def round_texts(workload: str, seed: int, workdir: Path) -> list[str]:
    ops = Plan(workload, seed, workdir).next_round()
    return [Path(a).read_text() if a.endswith(".isa") else a for op in ops for a in op.argv]


@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = round_texts(workload, 7, tmp_path / "a")
    again = round_texts(workload, 7, tmp_path / "b")
    other = round_texts(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("preferred", [False, True])
def test_generated_specs_validate_with_no_diagnostics(n, preferred):
    text = broker_text(n, preferred=preferred)
    for variant in (text, disguise(text, random.Random(n), "t")):
        assert dsl.validate_spec(dsl.parse_spec(variant), strict=True) == []


def test_disguise_keeps_the_machine_and_changes_the_spec():
    text = broker_text(3)
    copy = disguise(text, random.Random(1), "t")
    assert copy != text
    assert sorted(line.split(":", 1)[1] for line in copy.splitlines() if ": when" in line) == sorted(
        line.split(":", 1)[1] for line in text.splitlines() if ": when" in line
    )
    assert dsl.parse_spec(copy) != dsl.parse_spec(text)


@pytest.mark.parametrize("preferred, shipped", [(False, "broker.isa"), (True, "broker_preferred.isa")])
def test_broker_2_is_equivalent_to_the_shipped_broker(preferred, shipped, tmp_path):
    mine = tmp_path / "mine.isa"
    mine.write_text(broker_text(2, preferred=preferred))
    code, output = dispatch(["equiv", str(mine), str(SPECS / shipped), "--pool", POOL4])
    assert code == 0
    assert "equivalent=true" in output.splitlines()


def test_expected_answers_cover_every_op(tmp_path):
    checker = bench.Checker()
    for workload in ROUNDS:
        for op in Plan(workload, 3, tmp_path).next_round():
            assert op.key in checker.expected


def test_benchmark_json_names_the_metrics_the_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ROUNDS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(bench.END_TO_END)
    per_layer = {**tracing.METRICS, "trace.wall_s": "s"}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(per_layer.items())


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    """One op of each kind that runs in a few seconds, with and without the tracer."""
    ops = [op for w in ("enumerate", "session") for op in Plan(w, 1, tmp_path).next_round()][:20]
    ops += [op for op in Plan("check", 1, tmp_path).next_round() if op.key == "check broker"]
    ops += [op for op in Plan("equiv", 1, tmp_path).next_round() if op.key.endswith("broker_2 reordered")]
    plain = [dispatch(op.argv) for op in ops]
    fresh = bench._fresh_import()  # so that the traced ops find no memo entries
    originals = {name: getattr(sys.modules[f"interstep.{name.rpartition('.')[0]}"], name.rpartition(".")[2])
                 for name in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [(fresh.dispatch([*op.argv, "--format", "machine"], out := io.StringIO()), out.getvalue())
                  for op in ops]
        stats = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert stats["cli.dispatch.calls"] == len(ops)
    for name in ("model.verdict", "model.holds", "dsl.parse_spec", "execution.step", "analysis.enumerate_attainable"):
        assert stats[f"{name}.calls"] > 0, name
    for name, fn in originals.items():
        module, _, attr = name.rpartition(".")
        assert getattr(sys.modules[f"interstep.{module}"], attr) is fn


def test_a_missing_traced_function_reads_null(monkeypatch, capsys):
    bench._fresh_import()
    monkeypatch.delattr(sys.modules["interstep.model"], "pending")
    tracer = tracing.Tracer()
    tracer.install()
    snap = tracer.snapshot()
    tracer.uninstall()
    assert tracer.missing == ["model.pending"]
    assert "interstep.model.pending" in capsys.readouterr().err
    group = {"rounds": [tracing.per_round(snap, snap)], "missing": tracer.missing,
             "samples": [("k", 1.0, 1.0)], "round_keys": ["k"]}
    metrics = bench.per_layer([group])
    nulls = {name for name, (value, _) in metrics.items() if value is None}
    assert nulls == {"model.pending.calls", "model.pending.self_s"}
    assert "model.verdict.repeat_ratio" in tracing.metrics_of(["model.verdict"])
    assert tracing.metrics_of(["analysis.all_bounded_histories"]) == [tracing.CANDIDATES]


def test_times_are_scaled_by_the_flanking_kernel_times():
    assert speed.scale(1.0, speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    assert speed.scale(1.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 0.5
    slots = speed.Slots()
    assert slots.add("short", speed.SLOT_S / 4, 0.0) == []
    closed = slots.add("long", speed.SLOT_S, 0.0) + slots.flush()
    assert [key for key, _, _ in closed] == ["short", "long"]


def test_every_group_credits_each_kind_with_its_best_time():
    groups = [
        {"round_keys": ["a", "b", "a"], "samples": [("a", 2.0, 1.0), ("a", 1.0, 3.0), ("b", 5.0, 5.0)]},
        {"round_keys": ["a", "b", "a"], "samples": [("a", 4.0, 4.0), ("b", 6.0, 7.0)]},
    ]
    assert bench.round_time(groups) == ((1 + 5 + 1 + 4 + 6 + 4) / 2, (1 + 5 + 1 + 4 + 7 + 4) / 2)


def test_compare_verdicts():
    from compare import verdict

    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.1) == ("improved", 1.0)
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)[0] == "worse"
    assert verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [x * 0.3 for x in noisy], "lower", 0.1)[0] == "improved"
