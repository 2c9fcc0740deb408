"""Tests of the benchmark itself: its metric names against BENCHMARK.json,
the self-time arithmetic, the seeded generator and the state orderings, the
correctness gate, and one-instance smoke runs of run.py.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.pin_checkout()      # the solver child must import ssltl from src/ too

DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in DOC["end_to_end"]]
LAYER = [m["name"] for m in DOC["per_layer"]]


def test_benchmark_json_shape():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"][1] == "perfbench/run.py"
    names = [w["name"] for w in DOC["workloads"]]
    assert names == [w for w in workloads.WORKLOADS if w != "smoke"]
    all_names = names + E2E + LAYER
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in DOC["end_to_end"])} \
        in DOC["end_to_end"]
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_per_layer_metric_has_a_prediction():
    readme = (BENCH / "README.md").read_text()
    for name in LAYER:
        assert f"`{name}`" in readme, name


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "i", 0)


def test_self_time_subtracts_covered_child_time():
    s = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 9.5, 0),        # overlaps b: counted once
        _span("d", 9.8, 11.0, 0),       # runs past the root: clipped
    ]
    assert spans.self_times(s) == pytest.approx(
        [10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_self_times_and_remainder_account_for_the_wall():
    s = [
        _span(spans.ROOT_NAME, 0.0, 4.0),
        _span("synthesis.solve", 0.5, 3.5, 0),
        _span("ilp.write_lp", 0.6, 0.7, 1),
        _span(spans.ROOT_NAME, 4.5, 6.0),
        _span("synthesis.build_product", 4.6, 5.0, 3),
    ]
    s[1].meta = {"status": "optimal", "model": None}
    replay = [{"instance": "i", "lp_bytes": 10, "parse_lp_s": 0.5,
               "highs_s": 1.5, "nodes": 1, "gap": 0.0, "limit_hit": False}]
    m = spans.layer_metrics(s, replay, 6.5, [_outcome("verified")])
    assert m["ilp.external_s"] == pytest.approx(2.9)
    assert m["ilp.solve_s"] == pytest.approx(3.0)
    assert m["milp_shim.launch_s"] == pytest.approx(0.9)
    assert m["synthesis.self_s"] == pytest.approx(1.0 + 1.1)
    assert m["trace.unattributed_s"] == pytest.approx(1.0)
    assert m["synthesis.unproven_ratio"] == 0.0
    table = spans.self_time_table(s)
    assert sum(t for _, _, t in table) + m["trace.unattributed_s"] \
        == pytest.approx(6.5)
    assert sorted(m) == sorted(n for n in LAYER if n != "trace.overhead_s")


def test_tracer_records_nested_spans_only_inside_a_root():
    import ssltl.ilp

    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        ssltl.ilp.parse_solution_text("x 1", ["x"])      # outside a root
        tracer.call("inst", 0, ssltl.ilp.parse_solution_text, "x 1", ["x"])
    finally:
        tracer.uninstall()
    assert [(sp.name, sp.parent, sp.instance) for sp in tracer.spans] == [
        (spans.ROOT_NAME, None, "inst"), ("ilp.parse_solution_text", 0, "inst")]
    assert not hasattr(ssltl.ilp.parse_solution_text, "__wrapped__")


def test_instances_are_a_pure_function_of_the_seed():
    def shape(rs):
        return [(r.inst.name, r.model.states, r.model.initial) for r in rs]

    a = workloads.build("small-feas", 3, ROOT)
    assert shape(a) == shape(workloads.build("small-feas", 3, ROOT))
    b = workloads.build("small-feas", 4, ROOT)
    assert [r.inst.name for r in a] != [r.inst.name for r in b]
    assert sorted(shape(a)) == sorted(shape(b))


def test_orderings_permute_the_states_and_nothing_else():
    import orderings

    r = workloads.load(workloads.WARMUP, ROOT)
    assert orderings.reorder(r, 0) is r
    o = orderings.reorder(r, 1)
    assert o.model.states != r.model.states
    assert sorted(o.model.states) == sorted(r.model.states)
    assert dataclasses.replace(o.model, states=r.model.states) == r.model


def _outcome(status, objective=None, sol_status="optimal", error=None,
             optimum=None, expect="verified"):
    inst = workloads.Instance("x", ("grid", 4, 4, 0, "deterministic"),
                              "fixtures/specs/theta4.json", "feasibility",
                              expect, optimum)
    result = None if error else SimpleNamespace(
        status=status, detail="", objective=objective, policy=None, rounds=1,
        solution=SimpleNamespace(status=sol_status))
    return run.Outcome(inst, None, result, error, 0.0)


def test_gate_counts_exceptions_and_wrong_verdicts():
    assert "SolverError" in run.check(
        _outcome(None, error="raised SolverError: unparseable solver output"))
    assert "expected 'verified'" in run.check(_outcome("infeasible"))
    assert run.check(_outcome("infeasible", expect="infeasible")) is None
    assert not _outcome("verified", sol_status="feasible").proven


def test_gate_reverifies_policies_and_checks_optima():
    from ssltl.ilp import IlpConfig
    from ssltl.product import Policy, build_product
    from ssltl.synthesis import synthesize

    inst = dataclasses.replace(workloads.WARMUP, objective="expected_reward")
    r = workloads.load(inst, ROOT)
    res = synthesize(r.model, r.dra, r.spec,
                     cfg=IlpConfig(objective="expected_reward"), solver=None)
    assert res.status == "verified"
    assert run.check(run.Outcome(inst, r, res, None, 0.0)) is None
    above = dataclasses.replace(inst, optimum=res.objective - 0.1)
    assert run.check(run.Outcome(above, r, res, None, 0.0)) is None
    below = dataclasses.replace(inst, optimum=res.objective + 0.1)
    assert "below the recorded" in run.check(
        run.Outcome(below, r, res, None, 0.0))
    inflated = dataclasses.replace(res, objective=res.objective + 0.01)
    assert "long-run reward" in run.check(
        run.Outcome(inst, r, inflated, None, 0.0))

    # No policy keeps 90 % of the long-run mass on d in this grid, so a
    # "verified" result must fail the independent re-check.
    tight = workloads.load(dataclasses.replace(
        workloads.BNB_HARD[2], expect="verified"), ROOT)
    states = build_product(tight.model, tight.dra).states
    policy = Policy(choice={sq: tight.model.enabled[sq[0]][0]
                            for sq in states})
    claimed = dataclasses.replace(res, policy=policy)
    assert run.check(run.Outcome(tight.inst, tight, claimed, None, 0.0)) \
        == "returned policy fails re-verification"


@pytest.mark.parametrize("trace, names", [(0, E2E), (1, LAYER)])
def test_smoke_run_emits_the_declared_metrics(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed",
         "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == (1 if trace == 0 else 2)
    assert sorted(out["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in DOC["end_to_end"] + DOC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in out["metrics"].items())


def test_traced_run_lists_an_instance_whose_solve_raises(monkeypatch, capsys):
    import ssltl.synthesis
    from ssltl.errors import SolverError

    def broken(*args, **kwargs):
        raise SolverError("unparseable solver output")

    monkeypatch.setattr(ssltl.synthesis, "solve", broken)
    assert run.main(["--workload", "smoke", "--seed", "0", "--seconds", "0",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    out = json.loads(lines[-1])
    assert out["correct"] is False
    assert out["attempted"] == out["failed"] == 2
    assert sorted(out["metrics"]) == sorted(LAYER)
    assert out["metrics"]["ilp.solve_calls"]["value"] == 1
    assert out["metrics"]["milp_shim.nodes"]["value"] == 0
    assert f"  FAIL {workloads.WARMUP.name}: raised SolverError: " \
        "unparseable solver output" in lines
