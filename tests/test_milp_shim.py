import math
import subprocess
import sys

import pytest

from ssltl.milp_shim import main, parse_lp, _parse_terms


def test_parse_terms_signs_and_scientific_notation():
    # 9.6e-05 is the flow increment eps above 2500 product states.
    coefs, const = _parse_terms(
        "0.5 x - 1 y + 2.5e-05 z - w - 9.6e-05 v + 1 e - 5 u + 3")
    assert coefs == {"x": 0.5, "y": -1.0, "z": pytest.approx(2.5e-05),
                     "w": -1.0, "v": -9.6e-05, "e": 1.0, "u": -5.0}
    assert const == 3.0


def test_parse_lp_sections():
    text = """Minimize
 obj: 1 x + 2 y
Subject To
 c1: 1 x + 1 y >= 2
 c2: 1 x - 1 y = 0
Bounds
 0 <= x <= 5
 y free
Binary
 b
End
"""
    prob = parse_lp(text)
    assert prob.names == ["x", "y", "b"]
    # the model maximizes, so a Minimize file's objective is negated
    assert (prob.sign, prob.offset) == (-1.0, 0.0)
    assert prob.model.objective == ((-1.0, 0), (-2.0, 1))
    assert [(r.name, r.terms, r.sense, r.rhs) for r in prob.model.rows] == [
        ("c1", ((1.0, 0), (1.0, 1)), ">=", 2.0),
        ("c2", ((1.0, 0), (-1.0, 1)), "=", 0.0)]
    assert [(v.lb, v.ub, v.binary) for v in prob.model.variables] == [
        (0.0, 5.0, False), (-math.inf, math.inf, False), (0.0, 1.0, True)]
    assert prob.model.product is None


@pytest.mark.parametrize("line, bounds", [
    ("x >= -inf", (-math.inf, math.inf)),
    ("-inf <= x", (-math.inf, math.inf)),
    ("x <= +inf", (0.0, math.inf)),
    ("x <= infinity", (0.0, math.inf)),
    ("-Infinity <= x <= 5", (-math.inf, 5.0)),
])
def test_parse_lp_infinite_bounds(line, bounds):
    prob = parse_lp(f"Maximize\n obj: 1 y\nSubject To\n c: 1 x + 1 y <= 3\n"
                    f"Bounds\n {line}\nEnd\n")
    assert prob.names == ["y", "x"]
    assert (prob.model.variables[1].lb, prob.model.variables[1].ub) == bounds


def test_column_named_inf_stays_a_column():
    prob = parse_lp("Maximize\n obj: 1 inf\nSubject To\n"
                    " c: 2 inf - 1 x <= 3\nBounds\n inf <= 4\nEnd\n")
    assert prob.names == ["inf", "x"]
    assert prob.model.rows[0].terms == ((2.0, 0), (-1.0, 1))
    assert prob.model.variables[0].ub == 4.0


def run_shim(tmp_path, lp_text, *extra):
    lp = tmp_path / "m.lp"
    sol = tmp_path / "m.sol"
    lp.write_text(lp_text)
    assert main([str(lp), str(sol), *extra]) == 0
    return sol.read_text()


def test_solves_small_milp(tmp_path):
    out = run_shim(tmp_path, """Maximize
 obj: 3 x + 2 y + 10 b
Subject To
 c1: 1 x + 1 y <= 4
 c2: 1 x + 3 y + 2 b <= 6
Bounds
 0 <= x <= 10
 0 <= y <= 10
Binary
 b
End
""")
    assert "Optimal" in out
    values = dict(line.split() for line in out.splitlines()
                  if line and line.split()[0] in ("x", "y", "b"))
    assert float(values["b"]) == pytest.approx(1.0)
    assert float(values["x"]) == pytest.approx(4.0)


def test_reports_infeasible(tmp_path):
    out = run_shim(tmp_path, """Maximize
 obj: 0
Subject To
 c1: 1 x >= 2
 c2: 1 x <= 1
Bounds
 0 <= x <= 10
End
""")
    assert "Infeasible" in out


def test_constant_objective_accepted(tmp_path):
    out = run_shim(tmp_path, """Maximize
 obj: 0
Subject To
 c1: 1 x <= 1
Bounds
 0 <= x <= 1
End
""")
    assert "Optimal" in out


def test_console_entry_point(tmp_path):
    lp = tmp_path / "m.lp"
    sol = tmp_path / "m.sol"
    lp.write_text("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= 2\n"
                  "Bounds\n 0 <= x <= 9\nEnd\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ssltl.milp_shim", str(lp), str(sol)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "x 2.0" in sol.read_text()
