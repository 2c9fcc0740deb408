import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ssltl import ilp
from ssltl.cli import main
from ssltl.ilp import default_solver_command, parse_solution_text
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


BENCH_ONE = ("bench", "--seeds", "1", "--specs", "fixtures/specs/theta4.json")


@pytest.mark.parametrize("argv", [
    ("gen-grid", "--size", "3", "--seed", "-1"),
    ("gen-grid", "--size", "3", "--seed", str(2 ** 64)),
    BENCH_ONE + ("--sizes", "2", "--seed-base", "-1"),
    BENCH_ONE + ("--sizes", "2", "--seed-base", str(2 ** 64 - 1),
                 "--seeds", "2"),
    BENCH_ONE + ("--sizes", "2,x"),
    BENCH_ONE + ("--sizes", "2", "--seeds", "-3"),
    BENCH_ONE + ("--sizes", "2", "--workers", "-2"),
    BENCH_ONE + ("--sizes", ""),
], ids=["seed-negative", "seed-2**64", "bench-seed-negative",
        "bench-seed-past-2**64-1", "bench-size-not-a-number",
        "bench-seeds-negative", "bench-workers-negative", "bench-no-size"])
def test_bad_number_is_a_usage_error(tmp_path, capsys, argv):
    code = run_cli(*argv, "-o", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gen_grid_takes_the_largest_seed(tmp_path):
    assert run_cli("gen-grid", "--size", "3", "--seed", str(2 ** 64 - 1),
                   "-o", str(tmp_path / "g.json")) == 0


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
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0},
                                               {"from": "zz", "action": "go",
                                                "to": "s0", "p": 0.3}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0},
                                               {"from": "s0", "action": "lef",
                                                "to": "s0", "p": 1.0}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0}],
                               "rewards": [{"from": "s0", "action": "go",
                                            "to": "s1", "r": 1.0}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": ["s0"], "p": 1.0}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": "gg"}],
                               "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0}]})),
    ("model.json", json.dumps({"states": [{"id": "s0", "labels": ["g"]}],
                               "ap": "g", "actions": ["go"], "initial": "s0",
                               "transitions": [{"from": "s0", "action": "go",
                                                "to": "s0", "p": 1.0}]})),
    ("spec.json", json.dumps(["true.hoa"])),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": 5, "lower": 0.0, "upper": 1.0}]})),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": "g", "lower": "nan", "upper": 1.0}]})),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": "g", "lower": float("-inf"), "upper": 1.0}]})),
    ("spec.json", json.dumps({"dra": "true.hoa", "ss": [
        {"formula": "g", "lower": 0.0, "upper": float("inf")}]})),
    ("policy.json", "not json"),
    ("true.hoa", TRIVIAL_HOA.replace("Rabin 1", "Rabin")),
    ("true.hoa", TRIVIAL_HOA.replace("Acceptance: 2", "Acceptance: x")),
    ("true.hoa", TRIVIAL_HOA.replace("AP: 0", "AP: x")),
    ("true.hoa", TRIVIAL_HOA.replace("AP: 0", "AP: \u00b2")),
    ("true.hoa", TRIVIAL_HOA.encode() + b"/* \xff */\n"),
    ("true.hoa", TRIVIAL_HOA.replace("Start: 0", "Start: 5")),
    ("true.hoa", TRIVIAL_HOA.replace("Start: 0", "Start: -1")),
    ("true.hoa", TRIVIAL_HOA.replace("State: 0 {1}", "State: 0 {1 7}")),
    ("true.hoa", TRIVIAL_HOA.replace("AP: 0", 'AP: 1 "g"')
                            .replace("[t] 0", "[!5] 0")),
], ids=["state-without-id", "states-not-a-list", "model-not-utf8",
        "probability-nan", "reward-nan", "transition-from-undeclared-state",
        "transition-with-undeclared-action", "reward-without-transition",
        "transition-target-unhashable", "labels-a-string", "ap-a-string",
        "spec-is-a-list", "formula-not-a-string", "bound-nan",
        "lower-minus-infinity", "upper-infinity",
        "policy-not-json",
        "acc-name-without-count", "acceptance-without-count",
        "ap-without-count", "ap-count-not-decimal",
        "hoa-not-utf8", "start-out-of-range", "start-negative",
        "acceptance-set-out-of-range", "ap-index-out-of-range"])
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


PROGRAM_KNOBS = [("--acc-eps", "nan")]
# The flow rows' increment and ratio are worked out, not flags.
GONE_KNOBS = [("--eps", "0"), ("--eps", "nan"), ("--eps", "1e-5"),
              ("--flow-ratio", "0.5"), ("--flow-ratio", "nan")]
# Knobs of the solver rounds: synth rejects bad values, and export-lp, which
# solves nothing, takes none of them.
RUN_KNOBS = [("--max-cut-rounds", "0"), ("--max-cut-rounds", "-3"),
             ("--timeout", "-1"), ("--timeout", "inf"), ("--timeout", "nan"),
             ("--solver-cmd", "no-such-solver {lp} {sol}", "--timeout", "inf"),
             ("--solver-cmd", "no-such-solver {lp} {sol}", "--timeout", "nan")]
EXPORT_ONLY_RUN_KNOBS = [("--solver-cmd", "x"), ("--keep-files", "kept"),
                         ("--max-cut-rounds", "0", "--timeout", "-1",
                          "--solver-cmd", "x", "--keep-files", "kept")]


@pytest.mark.parametrize("knob, command", [
    pytest.param(knob, command, id=f"{' '.join(knob)}-{command}")
    for knob in PROGRAM_KNOBS + GONE_KNOBS + RUN_KNOBS + EXPORT_ONLY_RUN_KNOBS
    for command in ("synth", "export-lp")
    if command == "export-lp" or knob not in EXPORT_ONLY_RUN_KNOBS])
def test_bad_program_knob_is_a_usage_error(tmp_path, capsys, command, knob):
    write_trivial_instance(tmp_path)
    code = run_cli(command, "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "out"), *knob)
    err = capsys.readouterr().err
    assert code == 1
    if knob not in GONE_KNOBS and (command == "synth"
                                   or knob in PROGRAM_KNOBS):
        assert err.startswith("error:")
    else:
        assert "unrecognized arguments" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kept").exists()


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
    assert solver["seed"] in ilp._RACER_SEEDS
    assert solver["searches"] == len(ilp._race_seeds())
    assert solver["split"] is False     # the initial state has one action
    assert solver["dive"] is False      # a reward program is never dived


def test_record_of_a_feasibility_run_names_the_dive(tmp_path,
                                                    bundled_backend):
    """Every point of a feasibility program is optimal, so each search
    dives first.  The one policy's binaries are integral in the LP
    relaxation, so the restriction holds its point, and the record says that
    the point came from there."""
    write_trivial_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "--objective", "feasibility",
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"))
    assert code == 0
    solver = json.loads((tmp_path / "record.json").read_text())["solver"]
    assert (solver["status"], solver["objective"], solver["dive"]) == (
        "optimal", 0.0, True)


def test_record_of_an_infeasibility_the_barred_lp_proves(tmp_path,
                                                        bundled_backend):
    """On the deterministic 4x3 grid of seed 0 under theta2, no policy puts
    mass 0.9 on d, and the LP relaxation with x kept off the rejecting
    self-loops has no point: the run is infeasible without branch and
    bound, and the record names that proof."""
    save_model(generate_grid(GridSpec(4, 3, seed=0)), tmp_path / "m.json")
    (tmp_path / "spec.json").write_text(json.dumps({
        "dra": str(Path("fixtures/automata/theta2.hoa").resolve()),
        "ss": [{"formula": "d", "lower": 0.9, "upper": 1.0}]}))
    code = run_cli("synth", "--model", str(tmp_path / "m.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "--objective", "feasibility",
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"))
    assert code == 2
    rec = json.loads((tmp_path / "record.json").read_text())
    assert rec["status"] == "infeasible" and rec["solver"]["barred"] > 0
    assert rec["detail"] == (
        f"no policy: the LP relaxation has no point once x is kept off the "
        f"{rec['solver']['barred']} absorbing self-loops that no Rabin pair "
        f"accepts")
    assert not (tmp_path / "policy.json").exists()


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


def test_bench_reports_the_time_and_cause_of_an_attempt_that_raised(
        tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--sizes", "2", "--seeds", "1", "--specs",
                   "fixtures/specs/theta4.json",
                   "--solver-cmd", "no-such-solver {lp} {sol}", "-o", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "size", "spec", "status", "seconds",
                       "objective", "verified"]
    assert [r[0] for r in rows[1:]] == ["theta4_2x2_seed0", "summary",
                                        "summary"]
    run = rows[1]
    assert run[3] == "error" and run[6] == "false"
    assert float(run[4]) > 0.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("theta4_2x2_seed0: error: ")
    assert "no-such-solver" in lines[0]


def test_synth_solver_error_exit_4(tmp_path):
    write_trivial_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--solver-cmd", "no-such-solver-binary {lp} {sol}")
    assert code == 4


def test_synth_records_a_solver_that_cannot_launch(tmp_path, capsys):
    write_trivial_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "model.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"),
                   "--solver-cmd", "no-such-solver {lp} {sol}")
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "error: solver error: cannot launch solver: 'no-such-solver ")
    rec = json.loads((tmp_path / "record.json").read_text())
    assert rec["status"] == "error" and rec["rounds"] == 1
    assert rec["detail"].startswith("solver error: cannot launch solver: ")
    assert rec["solver"]["status"] == "error"
    assert rec["solver"]["seed"] is rec["solver"]["searches"] is None
    assert rec["solver"]["dive"] is None
    assert not (tmp_path / "policy.json").exists()


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_solver_cmd_defaults_to_the_environment(tmp_path, capsys, monkeypatch,
                                                command):
    monkeypatch.setenv("SSLTL_SOLVER_CMD", "no-such-solver {lp} {sol}")
    args = ["bench", "--specs", "fixtures/specs/theta4.json", "--seeds", "1",
            "-o", str(tmp_path / "bench.csv")]
    if command == "synth":
        write_trivial_instance(tmp_path)
        args = ["synth", "--model", str(tmp_path / "model.json"),
                "--spec", str(tmp_path / "spec.json"),
                "-o", str(tmp_path / "policy.json")]
    code = run_cli(*args)
    assert code == (4 if command == "synth" else 0)
    assert "cannot launch solver: 'no-such-solver " in capsys.readouterr().err


def test_bench_reports_the_cause_of_an_attempt_that_raised(tmp_path, capsys):
    """An ss formula over a proposition the grid lacks raises out of
    ``synthesize``; the row still carries the attempt's time and cause."""
    spec = tmp_path / "zz.json"
    spec.write_text(json.dumps({
        "dra": str(Path("fixtures/automata/fa_U_b.hoa").resolve()),
        "ss": [{"formula": "zz", "lower": 0.0, "upper": 1.0}]}))
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--sizes", "2", "--seeds", "1", "--specs",
                   str(spec), "-o", str(out)) == 0
    with open(out, newline="") as fh:
        run = list(csv.reader(fh))[1]
    assert run[:4] == ["zz_2x2_seed0", "2", "zz", "error"]
    assert float(run[4]) > 0.0
    assert capsys.readouterr().err.splitlines() == [
        "zz_2x2_seed0: error: unknown proposition 'zz'"]


def write_detour_instance(tmp_path):
    """An instance whose first candidate fails whichever optimal solution
    the solver returns: from c0, ``split`` leads to split, which moves to
    good or bad with probability 0.5 each, and ``detour`` to good2.  good
    (reward 1 per step) and good2 (reward 0.5) are labelled p, and the spec
    asks for p at least 0.9 of the time.  The optimum of the first program
    puts x on good alone, so it takes split at c0, whose chain spends half
    its time in bad; the cut excludes that step, and the second candidate,
    the detour, verifies."""
    write_trivial_instance(tmp_path)
    absorbing = ("good", "bad", "good2")
    model = {
        "states": [{"id": s, "labels": ["p"] if s.startswith("good") else []}
                   for s in ("c0", "split") + absorbing],
        "actions": ["split", "detour"],
        "initial": "c0",
        "transitions": (
            [{"from": "c0", "action": "split", "to": "split", "p": 1.0},
             {"from": "c0", "action": "detour", "to": "good2", "p": 1.0},
             {"from": "split", "action": "split", "to": "good", "p": 0.5},
             {"from": "split", "action": "split", "to": "bad", "p": 0.5}]
            + [{"from": s, "action": "split", "to": s, "p": 1.0}
               for s in absorbing]),
        "rewards": [
            {"from": "good", "action": "split", "to": "good", "r": 1.0},
            {"from": "good2", "action": "split", "to": "good2", "r": 0.5}],
    }
    (tmp_path / "m.json").write_text(json.dumps(model))
    spec = {"dra": "true.hoa",
            "ss": [{"formula": "p", "lower": 0.9, "upper": 1.0}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))


def test_synth_unverified_exit_3(tmp_path, bundled_backend):
    """The detour instance needs a second round, so a one-round budget
    leaves its rejected candidate unverified."""
    write_detour_instance(tmp_path)
    code = run_cli("synth", "--model", str(tmp_path / "m.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--max-cut-rounds", "1")
    assert code == 3
    assert not (tmp_path / "policy.json").exists()


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


def check_keep_files_keeps_every_round(tmp_path, *flags):
    """The detour instance takes two rounds."""
    write_detour_instance(tmp_path)
    kept = tmp_path / "kept"
    code = run_cli("synth", "--model", str(tmp_path / "m.json"),
                   "--spec", str(tmp_path / "spec.json"),
                   "-o", str(tmp_path / "policy.json"),
                   "--record", str(tmp_path / "record.json"),
                   "--keep-files", str(kept), *flags)
    assert code == 0
    assert json.loads((tmp_path / "record.json").read_text())["rounds"] == 2
    assert sorted(p.name for p in kept.iterdir()) == [
        "round_1.lp", "round_1.sol", "round_2.lp", "round_2.sol"]
    round_1 = (kept / "round_1.lp").read_text()
    round_2 = (kept / "round_2.lp").read_text()
    assert "c_cut_0_nogood" not in round_1 and "c_cut_0_nogood" in round_2
    names = parse_lp(round_2).names
    for sol in ("round_1.sol", "round_2.sol"):
        values, hint = parse_solution_text((kept / sol).read_text(), names)
        assert hint == "optimal" and len(values) == len(names)


def test_keep_files_keeps_every_round(tmp_path, bundled_backend):
    check_keep_files_keeps_every_round(tmp_path)


def test_keep_files_keeps_every_round_of_an_external_solver(
        tmp_path, bundled_backend):
    """The bundled engine as an LP-file command (``ssltl-milp``)."""
    check_keep_files_keeps_every_round(
        tmp_path, "--solver-cmd", default_solver_command())
