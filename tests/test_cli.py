import csv
import json
import subprocess
import sys

import pytest

from ssltl.cli import main
from ssltl.ilp import parse_solution_text
from ssltl.milp_shim import parse_lp
from ssltl.model import GridSpec, generate_grid, save_model


def run_cli(*argv):
    return main(list(argv))


def test_gen_grid_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen-grid", "--size", "4", "--seed", "1", "-o", str(a)) == 0
    assert run_cli("gen-grid", "--size", "4", "--seed", "1", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_grid_16_has_256_states(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen-grid", "--size", "16", "--seed", "0", "-o",
                   str(out)) == 0
    assert len(json.loads(out.read_text())["states"]) == 256


def test_usage_error_exit_code():
    assert run_cli("gen-grid", "--size", "4") == 1  # missing -o
    assert run_cli("no-such-command") == 1


def write_trivial_instance(tmp_path):
    model = {
        "states": [{"id": "s0", "labels": ["g"]}],
        "actions": ["go"],
        "initial": "s0",
        "transitions": [{"from": "s0", "action": "go", "to": "s0", "p": 1.0}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    hoa = """HOA: v1
States: 1
Start: 0
AP: 0
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
"""
    (tmp_path / "true.hoa").write_text(hoa)
    spec = {"dra": "true.hoa",
            "ss": [{"formula": "g", "lower": 1.0, "upper": 1.0}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))


def test_synth_trivial_instance_and_external_verify(tmp_path):
    write_trivial_instance(tmp_path)
    policy = tmp_path / "policy.json"
    record = tmp_path / "record.json"
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(policy), "--record", str(record))
    assert code == 0
    doc = json.loads(policy.read_text())
    assert doc["policy"] == [{"s": "s0", "q": "q0", "action": "go"}]
    rec = json.loads(record.read_text())
    assert rec["verified"] is True and rec["status"] == "verified"

    # the emitted files must verify in a separate process
    proc = subprocess.run(
        [sys.executable, "-m", "ssltl.cli", "verify",
         "--model", str(tmp_path / "model.json"),
         "--spec", str(tmp_path / "spec.json"),
         "--policy", str(policy)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] is True
    assert report["unichain"] is True


TRIVIAL_HOA = """HOA: v1
States: 1
Start: 0
AP: 0
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
"""


@pytest.mark.parametrize("name, text", [
    ("model.json", json.dumps({"states": [{"labels": []}], "actions": ["go"],
                               "initial": "s0", "transitions": []})),
    ("model.json", json.dumps({"states": 5, "actions": ["go"],
                               "initial": "s0", "transitions": []})),
    ("model.json", b'{"states": "\xff"}'),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": "nan"}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0}],
                               "rewards": [{"from": "s0", "action": "go",
                                            "to": "s0", "r": "nan"}]})),
    ("spec.json", json.dumps(["true.hoa"])),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": 5, "lower": 0.0, "upper": 1.0}]})),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": "g", "lower": "nan", "upper": 1.0}]})),
    ("policy.json", "not json"),
    ("true.hoa", TRIVIAL_HOA.replace("Rabin 1", "Rabin")),
    ("true.hoa", TRIVIAL_HOA.replace("Acceptance: 2", "Acceptance: x")),
    ("true.hoa", TRIVIAL_HOA.replace("AP: 0", "AP: x")),
    ("true.hoa", TRIVIAL_HOA.replace("AP: 0", "AP: \u00b2")),
    ("true.hoa", TRIVIAL_HOA.encode() + b"/* \xff */\n"),
], ids=["state-without-id", "states-not-a-list", "model-not-utf8",
        "probability-nan", "reward-nan",
        "spec-is-a-list", "formula-not-a-string", "bound-nan",
        "policy-not-json",
        "acc-name-without-count", "acceptance-without-count",
        "ap-without-count", "ap-count-not-decimal",
        "hoa-not-utf8"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, name, text):
    write_trivial_instance(tmp_path)
    (tmp_path / "policy.json").write_text(json.dumps(
        {"policy": [{"s": "s0", "q": "q0", "action": "go"}]}))
    (tmp_path / name).write_bytes(
        text if isinstance(text, bytes) else text.encode())
    code = run_cli("verify", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "--policy", str(tmp_path / "policy.json"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "export-lp"])
@pytest.mark.parametrize("knob", [
    ("--eps", "0"), ("--eps", "nan"), ("--acc-eps", "nan"),
    ("--flow-ratio", "0.5"), ("--flow-ratio", "nan")],
    ids=lambda knob: " ".join(knob))
def test_bad_program_knob_is_a_usage_error(tmp_path, capsys, command, knob):
    write_trivial_instance(tmp_path)
    code = run_cli(command, "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "out"), *knob)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_record_reports_the_solver_answer(tmp_path, bundled_backend):
    """One state with reward 2 per step: HiGHS proves the optimum 2."""
    write_trivial_instance(tmp_path)
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["rewards"] = [{"from": "s0", "action": "go", "to": "s0", "r": 2.0}]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"))
    assert code == 0
    solver = json.loads((tmp_path / "record.json").read_text())["solver"]
    assert solver["status"] == "optimal"
    assert solver["objective"] == pytest.approx(2.0)
    assert solver["bound"] == pytest.approx(2.0)
    assert solver["gap"] == pytest.approx(0.0)
    assert isinstance(solver["nodes"], int)


def test_synth_infeasible_exit_2_and_no_policy_file(tmp_path):
    model = {
        "states": [{"id": "s0", "labels": ["p"]},
                   {"id": "s1", "labels": ["r"]}],
        "actions": ["stay"],
        "initial": "s0",
        "transitions": [
            {"from": "s0", "action": "stay", "to": "s0", "p": 1.0},
            {"from": "s1", "action": "stay", "to": "s1", "p": 1.0}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "true.hoa").write_text("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")
    spec = {"dra": "true.hoa",
            "ss": [{"formula": "p", "lower": 0.6, "upper": 1.0},
                   {"formula": "r", "lower": 0.6, "upper": 1.0}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    policy = tmp_path / "policy.json"
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"), "-o", str(policy))
    assert code == 2
    assert not policy.exists()


def test_verify_exit_1_on_failing_policy(tmp_path):
    write_trivial_instance(tmp_path)
    # break the spec so the policy cannot meet it
    spec = {"dra": "true.hoa",
            "ss": [{"formula": "g", "lower": 0.0, "upper": 0.5}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "policy.json").write_text(json.dumps(
        {"policy": [{"s": "s0", "q": "q0", "action": "go"}]}))
    code = run_cli("verify", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "--policy", str(tmp_path / "policy.json"),
                   "-o", str(tmp_path / "report.json"))
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] is False


def test_steady_outputs_product_and_aggregate(tmp_path):
    write_trivial_instance(tmp_path)
    (tmp_path / "policy.json").write_text(json.dumps(
        {"policy": [{"s": "s0", "q": "q0", "action": "go"}]}))
    out = tmp_path / "steady.json"
    code = run_cli("steady", "--model", str(tmp_path / "model.json"),
                   "--dra", str(tmp_path / "true.hoa"),
                   "--policy", str(tmp_path / "policy.json"),
                   "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["product"] == [{"s": "s0", "q": "q0", "p": 1.0}]
    assert doc["aggregate"] == [{"s": "s0", "p": 1.0}]


def test_export_lp(tmp_path):
    write_trivial_instance(tmp_path)
    out = tmp_path / "model.lp"
    code = run_cli("export-lp", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"), "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("Maximize\n")
    assert "\nBinary\n" in text and text.endswith("End\n")


def test_bench_csv_contract(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--sizes", "4", "--specs",
                   "fixtures/specs/theta2.json", "--seeds", "3",
                   "--workers", "2", "-o", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "size", "spec", "status", "seconds",
                       "objective", "verified"]
    body = rows[1:]
    runs = [r for r in body if r[0] != "summary"]
    summaries = [r for r in body if r[0] == "summary"]
    assert len(runs) == 3
    assert len(summaries) == 2  # mean + stddev
    for r in runs:
        assert r[3] in ("verified", "infeasible")
        if r[3] == "verified":
            assert r[6] == "true"


def test_synth_solver_error_exit_4(tmp_path):
    write_trivial_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--solver-cmd", "no-such-solver-binary {lp} {sol}")
    assert code == 4


def test_synth_unverified_exit_3(tmp_path):
    # a zero-round budget leaves the candidate unverified by construction
    write_trivial_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--max-cut-rounds", "0")
    assert code == 3


def test_synth_time_limit_exit_4(tmp_path, bundled_backend, capsys):
    """A 0 s limit stops HiGHS before it finds any point."""
    save_model(generate_grid(GridSpec(3, 4, seed=1)), tmp_path / "m.json")
    code = run_cli("synth", "--model", str(tmp_path / "m.json"),
                   "--spec", "fixtures/specs/theta2.json",
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"),
                   "--timeout", "0")
    assert code == 4
    assert "time limit" in capsys.readouterr().err
    rec = json.loads((tmp_path / "record.json").read_text())
    assert rec["status"] == "timeout" and "(0 s)" in rec["detail"]
    assert not (tmp_path / "policy.json").exists()


def test_keep_files_keeps_every_round(tmp_path, bundled_backend):
    """4x4 theta2 grid seed 0 in feasibility mode takes two rounds."""
    save_model(generate_grid(GridSpec(4, 4, seed=0)), tmp_path / "m.json")
    kept = tmp_path / "kept"
    code = run_cli("synth", "--model", str(tmp_path / "m.json"),
                   "--spec", "fixtures/specs/theta2.json",
                   "--objective", "feasibility",
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"),
                   "--keep-files", str(kept))
    assert code == 0
    assert json.loads((tmp_path / "record.json").read_text())["rounds"] == 2
    assert sorted(p.name for p in kept.iterdir()) == [
        "round_1.lp", "round_1.sol", "round_2.lp", "round_2.sol"]
    round_1 = (kept / "round_1.lp").read_text()
    round_2 = (kept / "round_2.lp").read_text()
    assert "c_cut_0_nogood" not in round_1 and "c_cut_0_nogood" in round_2
    names = parse_lp(round_2).order
    for sol in ("round_1.sol", "round_2.sol"):
        values, hint = parse_solution_text((kept / sol).read_text(), names)
        assert hint == "optimal" and len(values) == len(names)
