"""Lifetime of the bundled backend's worker process: one per process,
reused across solves, replaced when it dies or after a fork, and never left
behind by its owner."""

import io
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ssltl import ilp
from ssltl.hoa import parse_hoa
from ssltl.ilp import IlpConfig, SolverConfig, build_program, solve
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.model import Lmdp, SsLtlSpec, validate_lmdp
from ssltl.product import build_product
from ssltl.synthesis import synthesize

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


NO_SS = SsLtlSpec(dra_source="x", ss=())


def one_state_model() -> Lmdp:
    return validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}},
        reward={("s0", "go", "s0"): 2.0},
        ap=(), labels={"s0": frozenset()}, initial="s0"))


def one_state_program():
    p = build_product(one_state_model(), TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), NO_SS,
                         IlpConfig())


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


def test_solves_share_one_worker():
    solve_once()
    pid = worker_pid()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


def test_dead_worker_is_replaced():
    solve_once()
    _, proc = ilp._worker
    proc.kill()
    proc.wait()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != proc.pid


def test_worker_killed_mid_exchange_is_a_solver_error(monkeypatch):
    solve_once()
    _, proc = ilp._worker
    receive = ilp._receive

    def killed_first(p):
        p.kill()
        p.wait()
        p.stdout.read()         # a reply written before the kill is lost
        return receive(p)

    monkeypatch.setattr(ilp, "_receive", killed_first)
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._worker is None
    monkeypatch.setattr(ilp, "_receive", receive)
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != proc.pid


def test_failed_request_is_a_solver_error_and_keeps_the_worker(monkeypatch):
    solve_once()
    pid = worker_pid()
    program, order = ilp.highs_arrays(one_state_program())
    short = program[:-1] + (program[-1][:0],)   # integrality of no column
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (short, order))
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "no solution" in sol.solver_output
    monkeypatch.undo()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


def kill_mid_exchange(monkeypatch):
    receive = ilp._receive

    def killed_first(p):
        p.kill()
        p.wait()
        p.stdout.read()
        return receive(p)

    monkeypatch.setattr(ilp, "_receive", killed_first)


def fail_the_request(monkeypatch):
    program, order = ilp.highs_arrays(one_state_program())
    short = program[:-1] + (program[-1][:0],)   # integrality of no column
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (short, order))


@pytest.mark.parametrize("failure, cause", [
    (kill_mid_exchange, "the bundled solver worker exited, code -9, "
                        "without a reply)"),
    (fail_the_request, "")], ids=["worker-killed", "worker-side-exception"])
def test_worker_failure_ends_synthesis_in_status_error(monkeypatch, failure,
                                                      cause):
    solve_once()
    failure(monkeypatch)
    result = synthesize(one_state_model(), TRUE_DRA, NO_SS,
                        solver=SolverConfig(timeout=60))
    assert result.status == "error" and result.rounds == 1
    assert result.detail.startswith(
        "solver error: the bundled HiGHS backend returned no solution: "
        f"Model status: Error ({cause}")
    monkeypatch.undo()
    assert synthesize(one_state_model(), TRUE_DRA, NO_SS).status == "verified"


def test_solver_prints_reach_neither_the_replies_nor_stderr():
    """Whatever the solver writes to fd 1 is dropped: the reply arrives
    intact and alone, and the worker's stderr stays empty."""
    code = ("import os\n"
            "from ssltl import milp_shim\n"
            "run_milp = milp_shim.run_milp\n"
            "def noisy(*args, **kwargs):\n"
            "    os.write(1, b'noise\\n')\n"
            "    return run_milp(*args, **kwargs)\n"
            "milp_shim.run_milp = noisy\n"
            "milp_shim.serve()\n")
    program, _ = ilp.highs_arrays(one_state_program())
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          input=pickle.dumps(program + (60.0,)),
                          capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    replies = io.BytesIO(proc.stdout)
    status, x, _, _, nodes = pickle.load(replies)
    assert replies.read() == b""
    assert status == "Optimal" and nodes is not None
    assert -program[0] @ x == pytest.approx(2.0)
    assert proc.stderr == b""


def test_solver_binaries_on_path_leave_the_bundled_route(tmp_path,
                                                         monkeypatch):
    """A ``highs`` or ``cbc`` binary on PATH is not a solver configuration:
    the default route stays the bundled worker."""
    for name in ("highs", "cbc"):
        stub = tmp_path / name
        stub.write_text(f"#!/bin/sh\ntouch '{tmp_path}/{name}-ran'\nexit 1\n")
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    assert solve_once() == pytest.approx(2.0)
    assert "ssltl.milp_shim" in ilp.default_solver_command()
    assert not list(tmp_path.glob("*-ran"))


def test_forked_child_starts_its_own_worker():
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
def test_owner_exit_leaves_no_worker(exit_call):
    """Also when the owner skips its exit handlers: the worker then reads EOF
    on its stdin and exits by itself."""
    code = ("import os, sys\n"
            "from test_worker import solve_once, worker_pid\n"
            "solve_once()\n"
            "print(worker_pid(), flush=True)\n"
            f"{exit_call}\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
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


def test_default_route_never_imports_scipy_into_the_caller():
    """The bundled backend's scipy lives in the worker only; the caller's
    memory and start-up stay free of it."""
    code = ("import sys\n"
            "from ssltl.hoa import load_hoa\n"
            "from ssltl.ilp import IlpConfig\n"
            "from ssltl.model import GridSpec, generate_grid, load_spec\n"
            "from ssltl.synthesis import synthesize\n"
            "spec = load_spec('fixtures/specs/theta4.json')\n"
            "result = synthesize(generate_grid(GridSpec(4, 4, seed=0)),\n"
            "                    load_hoa(spec.dra_source), spec,\n"
            "                    cfg=IlpConfig(objective='feasibility'))\n"
            "print(result.status, sorted(m for m in sys.modules\n"
            "                            if m.split('.')[0] == 'scipy'))\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "[]"]
