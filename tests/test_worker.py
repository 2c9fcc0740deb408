"""Lifetime of the bundled backend's worker process: one per process,
reused across solves, replaced when it dies or after a fork, and never left
behind by its owner."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ssltl import ilp
from ssltl.errors import SolverError
from ssltl.hoa import parse_hoa
from ssltl.ilp import IlpConfig, SolverConfig, build_program, solve
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.model import Lmdp, SsLtlSpec, validate_lmdp
from ssltl.product import build_product

TRUE_DRA = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
""")


def one_state_program():
    m = validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}},
        reward={("s0", "go", "s0"): 2.0},
        ap=(), labels={"s0": frozenset()}, initial="s0"))
    p = build_product(m, TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p),
                         SsLtlSpec(dra_source="x", ss=()), IlpConfig())


def solve_once() -> float:
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert sol.status == "optimal"
    return sol.objective


def worker_pid() -> int:
    owner, proc = ilp._worker
    assert owner == os.getpid()
    return proc.pid


def gone(pid: int) -> bool:
    """No such process, or only its zombie is left."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            return any(line.split()[1] == "Z" for line in fh
                       if line.startswith("State:"))
    except FileNotFoundError:
        return True


def test_solves_share_one_worker(bundled_backend):
    solve_once()
    pid = worker_pid()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


def test_dead_worker_is_replaced(bundled_backend):
    solve_once()
    _, proc = ilp._worker
    proc.kill()
    proc.wait()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != proc.pid


def test_worker_killed_mid_exchange_is_a_solver_error(bundled_backend,
                                                      monkeypatch):
    solve_once()
    _, proc = ilp._worker
    receive = ilp._receive

    def killed_first(p):
        p.kill()
        p.wait()
        p.stdout.read()         # a reply written before the kill is lost
        return receive(p)

    monkeypatch.setattr(ilp, "_receive", killed_first)
    with pytest.raises(SolverError, match="worker exited"):
        solve_once()
    assert ilp._worker is None
    monkeypatch.setattr(ilp, "_receive", receive)
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != proc.pid


def test_failed_request_is_a_solver_error_and_keeps_the_worker(
        bundled_backend, monkeypatch):
    solve_once()
    pid = worker_pid()
    program, order = ilp.highs_arrays(one_state_program())
    short = program[:-1] + (program[-1][:0],)   # integrality of no column
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (short, order))
    with pytest.raises(SolverError, match="no solution"):
        solve_once()
    monkeypatch.undo()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


def test_forked_child_starts_its_own_worker(bundled_backend):
    solve_once()
    parent_worker = worker_pid()
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:              # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(read_end)
            objective = solve_once()
            os.write(write_end, f"{worker_pid()} {objective!r}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        reply = fh.read()
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    child_worker, objective = reply.split()
    assert float(objective) == pytest.approx(2.0)
    assert int(child_worker) not in (parent_worker, child)
    assert worker_pid() == parent_worker
    assert solve_once() == pytest.approx(2.0)


@pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(0)"])
def test_owner_exit_leaves_no_worker(bundled_backend, exit_call):
    """Also when the owner skips its exit handlers: the worker then reads EOF
    on its stdin and exits by itself."""
    code = ("import os, sys\n"
            "from test_worker import solve_once, worker_pid\n"
            "solve_once()\n"
            "print(worker_pid(), flush=True)\n"
            f"{exit_call}\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, SSLTL_SOLVER_CMD="",
               PATH=os.path.dirname(sys.executable),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    pid = int(proc.stdout.split()[-1])
    deadline = time.monotonic() + 10
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(pid)
