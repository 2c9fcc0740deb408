"""Lifetime of the bundled backend's worker processes: one per raced search
in each process, reused across solves, paused when another search answers,
replaced when they die or after a fork, and never left behind by their
owner."""

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


def one_state_model(reward: float = 2.0) -> Lmdp:
    return validate_lmdp(Lmdp(
        states=("s0",), actions=("go",), enabled={"s0": ("go",)},
        trans={("s0", "go"): {"s0": 1.0}},
        reward={("s0", "go", "s0"): reward},
        ap=(), labels={"s0": frozenset()}, initial="s0"))


def one_state_program(reward: float = 2.0):
    p = build_product(one_state_model(reward), TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), NO_SS,
                         IlpConfig())


def solve_once(reward: float = 2.0) -> float:
    sol = solve(one_state_program(reward), SolverConfig(timeout=60))
    assert sol.status == "optimal"
    assert sol.searches == len(ilp._race_seeds())
    return sol.objective


def worker_pids() -> dict:
    """The worker pid of each search of this process."""
    owner, searches = ilp._workers
    assert owner == os.getpid()
    return {seed: search.proc.pid for seed, search in searches.items()}


def gone(pid: int) -> bool:
    """No such process, or only its zombie is left."""
    return state(pid) in (None, "Z")


def state(pid: int):
    """The ``State:`` letter of a process, None if there is none."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            return next(line.split()[1] for line in fh
                        if line.startswith("State:"))
    except FileNotFoundError:
        return None


def spinning_workers(spins: dict) -> tuple:
    """Worker arguments under which the search of seed s spins (busy, not
    asleep) ``spins[s][n]`` seconds before its n-th solve, the last entry
    for every later one; seeds without an entry do not spin."""
    code = ("import time\n"
            "from ssltl import milp_shim\n"
            f"spins, calls = {spins!r}, []\n"
            "run_milp = milp_shim.run_milp\n"
            "def spinning(*args, random_seed=0, **kwargs):\n"
            "    plan = spins.get(random_seed, [0])\n"
            "    deadline = time.monotonic() + plan[min(len(calls),\n"
            "                                           len(plan) - 1)]\n"
            "    calls.append(None)\n"
            "    while time.monotonic() < deadline:\n"
            "        pass\n"
            "    return run_milp(*args, random_seed=random_seed, **kwargs)\n"
            "milp_shim.run_milp = spinning\n"
            "milp_shim.serve()\n")
    return (sys.executable, "-c", code)


@pytest.fixture
def two_searches(monkeypatch):
    """Fresh workers for two racing searches, however many CPUs there are;
    called with a spin plan (see ``spinning_workers``)."""
    def start(spins=None):
        ilp._stop_workers()
        if spins is not None:
            monkeypatch.setattr(ilp, "_WORKER_ARGS", spinning_workers(spins))
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (0, 1))
    yield start
    ilp._stop_workers()


def test_solves_share_one_worker():
    """One worker per search, the same for every solve."""
    solve_once()
    pids = worker_pids()
    assert set(pids) >= set(ilp._race_seeds())
    assert solve_once() == pytest.approx(2.0)
    assert worker_pids() == pids


def test_searches_are_cut_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert ilp._race_seeds() == (0,)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert ilp._race_seeds() == ilp._RACER_SEEDS == (0, 1)
    monkeypatch.setattr(ilp, "_RACER_SEEDS", ilp._RACER_SEEDS)
    ilp.single_search()
    assert ilp._race_seeds() == (0,)
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.searches) == ("optimal", 0, 1)


def test_dead_worker_is_replaced(two_searches):
    two_searches()
    solve_once()
    killed = worker_pids()
    for search in ilp._workers[1].values():
        search.proc.kill()
        search.proc.wait()
    assert solve_once() == pytest.approx(2.0)
    assert not set(worker_pids().values()) & set(killed.values())


def kill_mid_exchange(monkeypatch, seeds=(0, 1)):
    """Kill the worker of each search in ``seeds`` when its reply is read."""
    receive = ilp._receive
    doomed = {search.proc.pid for seed, search in ilp._workers[1].items()
              if seed in seeds}

    def killed_first(p):
        if p.pid in doomed:
            p.kill()
            p.wait()
            p.stdout.read()     # a reply written before the kill is lost
        return receive(p)

    monkeypatch.setattr(ilp, "_receive", killed_first)


def test_worker_killed_mid_exchange_is_a_solver_error(monkeypatch,
                                                      two_searches):
    """With every search killed before its reply the solve is an error."""
    two_searches()
    solve_once()
    killed, receive = worker_pids(), ilp._receive
    kill_mid_exchange(monkeypatch)
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._workers[1] == {}
    monkeypatch.setattr(ilp, "_receive", receive)
    assert solve_once() == pytest.approx(2.0)
    assert not set(worker_pids().values()) & set(killed.values())


def test_a_search_killed_mid_exchange_leaves_the_other_to_answer(
        monkeypatch, two_searches):
    """Search 1 spins, so search 0's reply is read first, and lost."""
    two_searches({1: [0.5]})
    solve_once()
    killed, receive = worker_pids()[0], ilp._receive
    kill_mid_exchange(monkeypatch, seeds=(0,))
    sol = solve(one_state_program(3.0), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.objective) == ("optimal", 1, 3.0)
    assert 0 not in ilp._workers[1]
    monkeypatch.setattr(ilp, "_receive", receive)
    solve_once()
    assert worker_pids()[0] != killed


def test_a_stale_reply_is_never_returned(two_searches):
    """Search 1 spins 1 s before every solve, search 0 5 s before its
    second.  So search 0 answers the first program, and search 1 is paused
    mid-solve; in the next exchange search 1's stale reply to the first
    program comes first and is dropped, and its answer to the second wins."""
    two_searches({1: [1.0], 0: [0.0, 5.0]})
    first = solve(one_state_program(2.0), SolverConfig(timeout=60))
    assert (first.seed, first.objective) == (0, 2.0)
    assert ilp._workers[1][1].owes
    second = solve(one_state_program(3.0), SolverConfig(timeout=60))
    assert (second.status, second.seed, second.objective) == (
        "optimal", 1, 3.0)
    assert ilp._workers[1][0].owes and not ilp._workers[1][1].owes


def test_no_worker_runs_after_synthesize_returns(two_searches):
    """The loser, busy in its solve, is stopped by then; the winner, done
    with its reply, goes to sleep on the next request."""
    two_searches({1: [30.0]})
    result = synthesize(one_state_model(), TRUE_DRA, NO_SS)
    assert result.status == "verified" and result.solution.seed == 0
    pids = worker_pids()
    assert state(pids[1]) == "T"
    deadline = time.monotonic() + 10
    while state(pids[0]) != "S" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert state(pids[0]) == "S" and state(pids[1]) == "T"


def fail_the_request(monkeypatch):
    program, order = ilp.highs_arrays(one_state_program())
    short = program[:-1] + (program[-1][:0],)   # integrality of no column
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (short, order))


def test_failed_request_is_a_solver_error_and_keeps_the_worker(monkeypatch):
    """Every search fails the request; the workers live on."""
    solve_once()
    pids = worker_pids()
    fail_the_request(monkeypatch)
    sol = solve(one_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "no solution" in sol.solver_output
    monkeypatch.undo()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pids() == pids


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
    intact and alone, and the worker's stderr stays empty, also of scipy's
    warning that it hands HiGHS the seed verbatim."""
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
                          input=pickle.dumps(program + (60.0, 1)),
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
    parent_workers = worker_pids()
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:              # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(read_end)
            objective = solve_once()
            pids = " ".join(map(str, worker_pids().values()))
            os.write(write_end, f"{objective!r} {pids}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        reply = fh.read()
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    objective, *child_workers = reply.split()
    assert float(objective) == pytest.approx(2.0)
    assert len(child_workers) == len(ilp._race_seeds())
    assert not {int(pid) for pid in child_workers} & {
        child, *parent_workers.values()}
    assert worker_pids() == parent_workers
    assert solve_once() == pytest.approx(2.0)


@pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(0)"])
def test_owner_exit_leaves_no_worker(exit_call):
    """Search 1 is paused mid-solve, and search 0 waits for a request.  At
    exit the paused worker is killed and the idle one reads EOF; when the
    owner skips its exit handlers, the idle one still reads EOF, and the
    kernel hangs up the paused one's process group, which the owner's exit
    cuts off from its session."""
    code = ("import os, sys\n"
            "from ssltl import ilp\n"
            "from test_worker import solve_once, spinning_workers, "
            "worker_pids\n"
            "ilp._WORKER_ARGS = spinning_workers({1: [60.0]})\n"
            "ilp._race_seeds = lambda: (0, 1)\n"
            "solve_once()\n"
            "print(*worker_pids().values(), flush=True)\n"
            f"{exit_call}\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while not all(map(gone, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(gone, pids))


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
