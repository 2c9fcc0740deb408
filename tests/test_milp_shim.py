import math
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from scipy import sparse

from ssltl.milp_shim import highs, main, parse_lp


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
    c, a_rows, a_cols, a_vals, row_lb, row_ub, lb, ub, integrality = \
        prob.program
    assert prob.names == ["x", "y", "b"]
    # run_milp minimizes -sign times the file's objective: a Minimize file's
    # cost goes as written
    assert (prob.sign, prob.offset) == (-1.0, 0.0)
    assert list(c) == [1.0, 2.0, 0.0]
    assert (list(a_rows), list(a_cols), list(a_vals)) == (
        [0, 1, 0, 1], [0, 0, 1, 1], [1.0, 1.0, 1.0, -1.0])
    assert (list(row_lb), list(row_ub)) == ([2.0, 0.0], [math.inf, 0.0])
    assert (list(lb), list(ub), list(integrality)) == (
        [0.0, -math.inf, 0.0], [5.0, math.inf, 1.0], [0.0, 0.0, 1.0])
    assert [a.dtype for a in prob.program] == \
        [np.float64] + [np.int64] * 2 + [np.float64] * 6


def test_parse_terms_signs_and_scientific_notation():
    # 9.6e-05 is the flow increment eps above 2500 product states; the
    # constant 3 is the offset, and a Maximize file's cost is negated
    prob = parse_lp("Maximize\n obj: 0.5 x - 1 y + 2.5e-05 z - w - 9.6e-05 v"
                    " + 1 e - 5 u + 3\nSubject To\n c: 1 x <= 1\nEnd\n")
    assert prob.names == ["x", "y", "z", "w", "v", "e", "u"]
    assert (prob.sign, prob.offset) == (1.0, 3.0)
    assert list(-prob.program[0]) == [0.5, -1.0, 2.5e-05, -1.0, -9.6e-05,
                                      1.0, -5.0]


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
    lb, ub = prob.program[6:8]
    assert prob.names == ["y", "x"]
    assert (lb[1], ub[1]) == bounds


def run_cli(tmp_path, name, lp_text):
    """``ssltl-milp`` on ``lp_text`` in file ``name``: the process and the
    path of its solution file."""
    lp, sol = tmp_path / name, tmp_path / "m.sol"
    lp.write_text(lp_text)
    proc = subprocess.run(
        [sys.executable, "-m", "ssltl.milp_shim", str(lp), str(sol)],
        capture_output=True, text=True)
    return proc, sol


def test_column_named_inf_is_refused(tmp_path):
    """HiGHS's LP reader refuses a column named ``inf``."""
    proc, sol = run_cli(tmp_path, "m.lp", "Maximize\n obj: 1 inf\n"
                        "Subject To\n c: 2 inf - 1 x <= 3\nBounds\n"
                        " inf <= 4\nEnd\n")
    assert proc.returncode != 0
    assert not sol.exists()


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
    """Any file name will do, and nothing reaches stdout."""
    proc, sol = run_cli(tmp_path, "m.txt", "Maximize\n obj: 1 x\n"
                        "Subject To\n c: 1 x <= 2\nBounds\n 0 <= x <= 9\n"
                        "End\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "x 2.0" in sol.read_text()


def test_highs_run_releases_the_interpreter_lock():
    """The bundled worker's searches run in parallel as threads only
    because HiGHS's ``run`` releases the interpreter lock: this thread keeps
    running Python while another is inside ``run`` on a dense LP."""
    rng = np.random.default_rng(0)
    n = 300
    a = sparse.csc_array(rng.random((n, n)))
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = lp.num_row_ = \
        lp.a_matrix_.num_row_ = n
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = a.indptr, a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = (
        -rng.random(n), np.zeros(n), np.full(n, np.inf))
    lp.row_lower_, lp.row_upper_ = np.full(n, -np.inf), np.ones(n)
    solver = highs._Highs()
    solver.setOptionValue("log_to_console", False)
    solver.passModel(lp)
    span = []

    def run():
        span.append(time.monotonic())
        solver.run()
        span.append(time.monotonic())

    thread, ticks = threading.Thread(target=run), []
    thread.start()
    while thread.is_alive():
        ticks.append(time.monotonic())
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert solver.getModelStatus() == highs.HighsModelStatus.kOptimal
    start, end = span
    quarter = (end - start) / 4
    assert quarter > 0.002
    assert any(start + quarter < t < end - quarter for t in ticks)
