"""Tests of the benchmark itself; not part of the library's test suite.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gauge  # noqa: E402
import hotelling  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def build(name, seed, tmp_path):
    return workloads.WORKLOADS[name](hotelling, seed, tmp_path / f"{name}-{seed}")


def inputs(ops):
    return [(op.label, op.game, op.profile) for op in ops]


def test_generation_is_deterministic_for_a_seed(tmp_path):
    for name in workloads.WORKLOADS:
        assert inputs(build(name, 7, tmp_path)) == inputs(build(name, 7, tmp_path / "again"))
    assert inputs(build("certify-pure", 7, tmp_path)) != inputs(build("certify-pure", 8, tmp_path))
    assert inputs(build("evaluate", 7, tmp_path)) != inputs(build("evaluate", 8, tmp_path))


def test_evaluate_documents_are_deterministic(tmp_path):
    build("evaluate", 3, tmp_path / "a")
    build("evaluate", 3, tmp_path / "b")
    first = sorted((tmp_path / "a" / "evaluate-3").iterdir())
    second = sorted((tmp_path / "b" / "evaluate-3").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    assert all(a.read_text() == b.read_text() for a, b in zip(first, second))


def test_workload_sizes_and_properties(tmp_path):
    pure = build("certify-pure", 1, tmp_path)
    assert len(pure) == 168
    props = workloads.input_properties(pure)
    assert props["oracle.instances"] == sum(op.game.num_players for op in pure)
    assert props["mixed.support_total"] == 168
    assert build("certify-mixed", 1, tmp_path)[0].oracle
    evaluate = build("evaluate", 1, tmp_path)
    assert not any(op.oracle for op in evaluate)
    assert workloads.input_properties(evaluate)["oracle.draws_total"] == 0


def runner_for(op):
    return run.Runner([op], 0, gauge.Gauge(ticks=False))


def test_planted_wrong_supremum_is_a_failure(tmp_path):
    op = next(op for op in build("certify-pure", 1, tmp_path) if op.label == "moved(1, 1, 2)")
    results = op.call()
    assert op.check(results)
    wrong = dataclasses.replace(results[0], supremum_payoff=results[0].supremum_payoff + Fraction(1, 97))
    planted = dataclasses.replace(op, call=lambda: (wrong, *results[1:]))
    runner = runner_for(planted)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_planted_wrong_mixed_payoff_is_a_failure(tmp_path):
    op = next(op for op in build("certify-mixed", 1, tmp_path) if op.label == "olk(1, 2)")
    results = op.call()
    assert op.check(results)
    shifted = dataclasses.replace(results[0], gain=results[0].gain - Fraction(1, 5))
    assert not op.check((shifted, *results[1:]))


def test_planted_wrong_cli_payoff_is_a_failure(tmp_path):
    ops = build("evaluate", 1, tmp_path)
    op = next(op for op in ops if op.label == "payoff two-player(1, 12)")
    code, out = op.call()
    assert code == 0 and op.check((code, out))
    assert json.loads(out) == ["1/24", "23/24"]
    assert not op.check((code, json.dumps(["1/12", "11/12"])))
    assert not op.check((1, out))
    full = next(op for op in ops if op.label.startswith("payoff --full"))
    code, out = full.call()
    report = json.loads(out)
    report["payoffs"][0] = "0/1"
    assert full.check((code, out)) and not full.check((code, json.dumps(report)))


def test_an_op_that_raises_is_a_failure(tmp_path):
    op = build("certify-mixed", 1, tmp_path)[0]
    runner = runner_for(dataclasses.replace(op, call=lambda: 1 / 0))
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tracer_attributes_self_time_and_restores(tmp_path):
    op = next(op for op in build("certify-mixed", 1, tmp_path) if op.label == "partition(1, 1, 4)")
    original = hotelling.mixed.masses
    tracer = spans.Tracer()
    tracer.install(hotelling)
    try:
        assert hotelling.mixed.masses is hotelling.payoff.masses is hotelling.equilibrium.masses
        runner_for(op).run_pass(tracer=tracer)
    finally:
        tracer.uninstall()
    assert hotelling.mixed.masses is original
    calls, self_s = tracer.totals()
    assert calls["oracle.certify_no_deviation"] == 1
    assert calls["oracle.best_response"] == 3
    assert calls["mixed.mixed_payoff"] == 1 and calls["payoff.masses"] == 4
    spans_by_name = {s[0]: s for s in tracer.spans}
    name, start, end, parent, op_id = spans_by_name["oracle.certify_no_deviation"]
    assert parent is None and op_id == 0
    assert 0 < self_s[name] < end - start
    assert all(s[4] == 0 for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end([[0.01, 0.02], [0.03, 0.01]], [0.1, 0.2])
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    props = workloads.input_properties([])
    layer = run.per_layer(spans.Tracer(), 0, props, 0.5, 0.1)
    assert {k: v["unit"] for k, v in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
