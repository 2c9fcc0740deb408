"""Lifetime of the bundled backend's worker processes: one per search in
each process, reused across solves, cancelled when another search answers
a race, replaced when they die or after a fork, and never left behind by
their owner; and how the answers of searches that split a program are
combined."""

import io
import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ssltl import ilp
from ssltl.hoa import parse_hoa
from ssltl.ilp import IlpConfig, SolverConfig, build_program, solve
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.model import Lmdp, SsLtlSpec, spec_from_json, validate_lmdp
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
ROOT = Path(__file__).resolve().parent.parent


def two_state_model(reward: float = 2.0) -> Lmdp:
    """s0 and s1 each stay or go to the other; staying earns 1 at s0 and
    ``reward`` at s1, so the optimum is max(1, ``reward``).  The run begins
    in a state whose one action goes to s0, so the initial product state
    has one pair, and the searches race over the whole program
    (``ilp._ask_worker``).  Small as it is, HiGHS's presolve leaves its
    program to the MIP solver, which makes interrupt checks
    (``spinning_workers``)."""
    states = ("start", "s0", "s1")
    trans = {("start", "go"): {"s0": 1.0}}
    rewards = {("s0", "stay", "s0"): 1.0, ("s1", "stay", "s1"): reward}
    for s, other in (("s0", "s1"), ("s1", "s0")):
        trans[(s, "stay")] = {s: 1.0}
        trans[(s, "go")] = {other: 1.0}
    return validate_lmdp(Lmdp(
        states=states, actions=("stay", "go"),
        enabled={"start": ("go",), "s0": ("stay", "go"),
                 "s1": ("stay", "go")}, trans=trans,
        reward=rewards, ap=(), labels={s: frozenset() for s in states},
        initial="start"))


def two_state_program(reward: float = 2.0):
    p = build_product(two_state_model(reward), TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), NO_SS,
                         IlpConfig())


def solve_once(reward: float = 2.0) -> float:
    sol = solve(two_state_program(reward), SolverConfig(timeout=60))
    assert sol.status == "optimal"
    assert sol.searches == len(ilp._race_seeds())
    return sol.objective


def worker_pids() -> dict:
    """The worker pid of each search of this process."""
    return {seed: search.proc.pid for seed, search in ilp._workers.items()}


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


def spinning_workers(spins: dict, deaf=()) -> tuple:
    """Worker arguments under which the search of seed s spins (busy, not
    asleep) ``spins[s][n]`` seconds at the first interrupt check of its
    n-th solve (from 0), the last entry for every later one; seeds without
    an entry do not spin.  The spin reads the cancel pipe as it goes, so a
    cancel ends it, and the solve, at once; but the n-th solve of a search
    whose ``(seed, n)`` is in ``deaf`` reads no cancel at all, nor does a
    solve no cancel can reach (no other search runs beside it)."""
    code = ("import sys, time\n"
            "from ssltl import milp_shim\n"
            f"spins, deaf, calls = {spins!r}, {tuple(deaf)!r}, []\n"
            "run_milp = milp_shim.run_milp\n"
            "def spinning(*args, random_seed=0, interrupt, **kwargs):\n"
            "    plan, n = spins.get(random_seed, [0]), len(calls)\n"
            "    left = [plan[min(n, len(plan) - 1)]]\n"
            "    calls.append(None)\n"
            "    if interrupt is None or (random_seed, n) in deaf:\n"
            "        interrupt = lambda: False\n"
            "    def spin():\n"
            "        deadline, left[0] = time.monotonic() + left[0], 0\n"
            "        while time.monotonic() < deadline:\n"
            "            if interrupt():\n"
            "                return True\n"
            "        return interrupt()\n"
            "    return run_milp(*args, random_seed=random_seed,\n"
            "                    interrupt=spin, **kwargs)\n"
            "milp_shim.run_milp = spinning\n"
            "milp_shim.serve(int(sys.argv[1]))\n")
    return (sys.executable, "-c", code)


@pytest.fixture
def two_searches(monkeypatch):
    """Fresh workers for two racing searches, however many CPUs there are;
    called with a spin plan (see ``spinning_workers``)."""
    def start(spins=None, deaf=()):
        ilp._stop_workers()
        if spins is not None:
            monkeypatch.setattr(ilp, "_WORKER_ARGS",
                                spinning_workers(spins, deaf))
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
    sol = solve(two_state_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.searches) == ("optimal", 0, 1)


def test_dead_worker_is_replaced(two_searches):
    two_searches()
    solve_once()
    killed = worker_pids()
    for search in ilp._workers.values():
        search.proc.kill()
        search.proc.wait()
    assert solve_once() == pytest.approx(2.0)
    assert not set(worker_pids().values()) & set(killed.values())


def kill_mid_exchange(monkeypatch, seeds=(0, 1)):
    """Kill the worker of each search in ``seeds`` when its reply is read."""
    receive = ilp._receive
    doomed = {search.proc.pid for seed, search in ilp._workers.items()
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
    sol = solve(two_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._workers == {}
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
    sol = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.objective) == ("optimal", 1, 3.0)
    assert 0 not in ilp._workers
    monkeypatch.setattr(ilp, "_receive", receive)
    solve_once()
    assert worker_pids()[0] != killed


def test_a_stale_reply_is_never_returned(two_searches):
    """Search 0 answers the first program at once; search 1, deaf to the
    cancel, spins 1 s and then solves it too.  In the next exchange search
    0 spins 5 s, and search 1's stale reply, the first program's optimum
    (staying at s0, which the second program rewards 1), is dropped when
    it comes; search 1 then gets the second program, and returns its
    optimum."""
    two_searches({1: [1.0, 0.0], 0: [0.0, 5.0]}, deaf=[(1, 0)])
    first = solve(two_state_program(0.5), SolverConfig(timeout=60))
    assert (first.seed, first.objective) == (0, 1.0)
    assert ilp._workers[1].owes
    t0 = time.monotonic()
    second = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (second.status, second.seed, second.objective) == (
        "optimal", 1, 3.0)
    assert time.monotonic() - t0 < 4.0
    assert ilp._workers[0].owes and not ilp._workers[1].owes


def test_a_cancelled_search_answers_the_next_program_at_once(two_searches):
    """Search 1, cancelled 30 s short of the end of its first solve, stops
    it: it answers the second program while search 0 spins, without first
    spending those 30 s on the first one."""
    two_searches({1: [30.0, 0.0], 0: [0.0, 30.0]})
    assert solve(two_state_program(2.0), SolverConfig(timeout=60)).seed == 0
    t0 = time.monotonic()
    second = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (second.seed, second.objective) == (1, 3.0)
    assert time.monotonic() - t0 < 5.0


def test_no_worker_runs_after_synthesize_returns(two_searches):
    """The loser, busy in its solve, is cancelled; within 1 s it has sent
    its reply, and both workers sleep on their next request."""
    two_searches({1: [30.0]})
    result = synthesize(two_state_model(), TRUE_DRA, NO_SS)
    assert result.status == "verified" and result.solution.seed == 0
    pids = worker_pids()
    deadline = time.monotonic() + 1.0
    while (any(state(pid) != "S" for pid in pids.values())
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert [state(pid) for pid in pids.values()] == ["S", "S"]


def split_program(p_lower: float = 0.0, detour: float = 5.0):
    """Two copies of ``two_state_model``'s s0 and s1 behind one start
    state, which two searches split on its two pairs: search 0 gets
    "stay", to t0, where staying at t1 earns 2, and search 1 "go", to s0,
    where staying at s1 earns 3.  s1 is labelled p, the long-run mass on p
    must be at least ``p_lower``, and going from s0 to s1 earns
    ``detour``.  No policy earns ``detour`` per step, so with ``detour``
    above 3 no half reaches the largest reward, and both are awaited.
    Each half, unlike the program of one copy alone, goes to the MIP
    solver, which makes interrupt checks (``spinning_workers``)."""
    states, trans, reward = ("start", "t0", "t1", "s0", "s1"), {}, {}
    for a, b, r in (("t0", "t1", 2.0), ("s0", "s1", 3.0)):
        trans[(a, "stay")], trans[(a, "go")] = {a: 1.0}, {b: 1.0}
        trans[(b, "stay")], trans[(b, "go")] = {b: 1.0}, {a: 1.0}
        reward[(a, "stay", a)], reward[(b, "stay", b)] = 1.0, r
    trans[("start", "stay")], trans[("start", "go")] = {"t0": 1.0}, {
        "s0": 1.0}
    reward[("s0", "go", "s1")] = detour
    m = validate_lmdp(Lmdp(
        states=states, actions=("stay", "go"),
        enabled={s: ("stay", "go") for s in states}, trans=trans,
        reward=reward, ap=("p",),
        labels={s: frozenset({"p"} if s == "s1" else ()) for s in states},
        initial="start"))
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "p", "lower": p_lower, "upper": max(p_lower, 1.0)}]})
    p = build_product(m, TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), spec,
                         IlpConfig())


def test_split_halves_are_combined(monkeypatch, two_searches):
    """Both halves are optimal, and the program's optimum is the better
    one, with the nodes of both."""
    two_searches()
    nodes, receive = [], ilp._receive

    def counting(proc):
        reply = receive(proc)
        nodes.append(reply[4])
        return reply

    monkeypatch.setattr(ilp, "_receive", counting)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.searches, sol.split) == (
        "optimal", 1, 2, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(3.0) and sol.gap == pytest.approx(0.0)
    assert len(nodes) == 2 and sol.nodes == sum(nodes)


def test_a_half_proven_at_the_largest_reward_answers_at_once(two_searches):
    """Without the detour's reward no policy earns more than 3 per step,
    and search 1 proves its half's optimum 3: the program is solved, and
    search 0, spinning 30 s in its half, is cancelled."""
    two_searches({0: [30.0]})
    t0 = time.monotonic()
    sol = solve(split_program(detour=0.0), SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 10.0
    assert (sol.status, sol.seed, sol.split) == ("optimal", 1, True)
    assert sol.objective == pytest.approx(3.0)
    assert ilp._workers[0].owes


def test_split_optimal_and_infeasible_halves_are_optimal(two_searches):
    """With mass 1/2 on p asked for, search 0's half is infeasible: it has
    no bound, and the other half's optimum and bound stand."""
    two_searches()
    sol = solve(split_program(p_lower=0.5), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("optimal", 1, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(3.0) and sol.gap == pytest.approx(0.0)


def test_split_infeasible_halves_are_infeasible(two_searches):
    """No policy puts more than all its mass on p: both halves are
    infeasible, and so is the program."""
    two_searches()
    sol = solve(split_program(p_lower=1.5), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("infeasible", None, True)
    assert (sol.bound, sol.gap) == (None, None)
    assert isinstance(sol.nodes, int)


def test_split_half_at_its_limit_leaves_the_program_at_a_limit(
        monkeypatch, two_searches):
    """Search 0's half stops at its limit, with its optimum 2 as incumbent
    and 5 as bound: the program is at a limit too, at search 1's point 3,
    with bound 5 and gap 2/3."""
    two_searches()
    solve(split_program(), SolverConfig(timeout=60))
    receive, limited = ilp._receive, ilp._workers[0].proc.pid

    def at_limit(proc):
        reply = receive(proc)
        if proc.pid != limited:
            return reply
        return ("Feasible (limit reached)", reply[1], -5.0, 4.0, reply[4])

    monkeypatch.setattr(ilp, "_receive", at_limit)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("feasible", 1, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(5.0)
    assert sol.gap == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("spins", [{1: [0.0, 30.0, 0.0]}, {0: [0.0, 0.5]}],
                         ids=["survivor-running", "survivor-answered"])
def test_a_search_killed_mid_split_leaves_the_whole_program_to_the_other(
        monkeypatch, two_searches, spins):
    """Search 0, which holds the worse half, is killed when its reply is
    read: while search 1 still spins 30 s in its half, or after it has
    answered.  Search 1 then solves the whole program, at once (a running
    half is cancelled), and its optimum is the answer: never the other
    half's alone taken for the program's.  The first split, which leaves
    neither search owing a reply, starts the workers."""
    two_searches(spins)
    solve(split_program(), SolverConfig(timeout=60))
    kill_mid_exchange(monkeypatch, seeds=(0,))
    t0 = time.monotonic()
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 10.0
    assert (sol.status, sol.seed, sol.searches, sol.split) == (
        "optimal", 1, 2, False)
    assert sol.objective == pytest.approx(3.0)
    assert 0 not in ilp._workers


def test_every_search_killed_mid_split_is_a_solver_error(monkeypatch,
                                                         two_searches):
    two_searches()
    solve_once()
    kill_mid_exchange(monkeypatch)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._workers == {}


def run_worker(requests: list, cancels=()) -> list:
    """The replies of a worker (``ilp._WORKER_ARGS``) to ``requests``, each
    ``(exchange, program, seed)`` and sent as one a cancel can reach, with
    the exchange numbers in ``cancels`` already waiting in its cancel pipe;
    the test holds the pipe's write end open throughout."""
    read_end, write_end = os.pipe()
    try:
        for exchange in cancels:
            os.write(write_end, exchange.to_bytes(8, "little"))
        proc = subprocess.run(
            ilp._WORKER_ARGS + (str(read_end),),
            input=b"".join(pickle.dumps((exchange,) + program
                                        + (60.0, seed, True))
                           for exchange, program, seed in requests),
            capture_output=True, timeout=120, pass_fds=(read_end,),
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    finally:
        os.close(read_end)
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    # nothing else reaches the reply stream or stderr
    assert proc.stderr == b""
    replies = io.BytesIO(proc.stdout)
    answers = [pickle.load(replies) for _ in requests]
    assert replies.read() == b""
    return answers


def test_a_stale_cancel_never_interrupts_a_later_exchange():
    program, _ = ilp.highs_arrays(two_state_program())
    for seed in (0, 1):
        (status, x, _, _, _), = run_worker([(3, program, seed)],
                                           cancels=(1, 2))
        assert status == "Optimal" and -program[0] @ x == pytest.approx(2.0)


def test_a_cancel_written_before_the_request_is_read_still_cancels_it():
    program, _ = ilp.highs_arrays(two_state_program())
    replies = run_worker([(2, program, 0), (3, program, 1)], cancels=(1, 2))
    assert [(status, x) for status, x, _, _, _ in replies[:1]] == [
        ("Error", None)]
    assert replies[1][0] == "Optimal"


def fail_the_request(monkeypatch):
    program, order = ilp.highs_arrays(two_state_program())
    c, a_rows, a_cols, *rest = program
    bad = (c, a_rows, a_cols + len(c), *rest)   # columns out of range
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (bad, order))


def test_failed_request_is_a_solver_error_and_keeps_the_worker(monkeypatch):
    """Every search fails the request; the workers live on."""
    solve_once()
    pids = worker_pids()
    fail_the_request(monkeypatch)
    sol = solve(two_state_program(), SolverConfig(timeout=60))
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
    result = synthesize(two_state_model(), TRUE_DRA, NO_SS,
                        solver=SolverConfig(timeout=60))
    assert result.status == "error" and result.rounds == 1
    assert result.detail.startswith(
        "solver error: the bundled HiGHS backend returned no solution: "
        f"Model status: Error ({cause}")
    monkeypatch.undo()
    assert synthesize(two_state_model(), TRUE_DRA, NO_SS).status == "verified"


def test_solver_prints_reach_neither_the_replies_nor_stderr(monkeypatch):
    """Whatever the solver writes to fd 1 is dropped: the reply arrives
    intact and alone, and the worker's stderr stays empty."""
    code = ("import os, sys\n"
            "from ssltl import milp_shim\n"
            "run_milp = milp_shim.run_milp\n"
            "def noisy(*args, **kwargs):\n"
            "    os.write(1, b'noise\\n')\n"
            "    return run_milp(*args, **kwargs)\n"
            "milp_shim.run_milp = noisy\n"
            "milp_shim.serve(int(sys.argv[1]))\n")
    monkeypatch.setattr(ilp, "_WORKER_ARGS", (sys.executable, "-c", code))
    program, _ = ilp.highs_arrays(two_state_program())
    (status, x, _, _, nodes), = run_worker([(1, program, 1)])
    assert status == "Optimal" and nodes is not None
    assert -program[0] @ x == pytest.approx(2.0)


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
    """The child closes its copies of the pipes to the parent's workers at
    once, so that the parent stays their only owner."""
    solve_once()
    parent_workers = worker_pids()
    parent_cancels = [s.cancels.fileno() for s in ilp._workers.values()]
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:              # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(read_end)
            for fd in parent_cancels:
                try:
                    os.fstat(fd)
                    os._exit(2)
                except OSError:
                    pass
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
def test_owner_exit_leaves_no_worker(exit_call, tmp_path):
    """The owner exits while both searches spin in their second solve, 60 s
    from its end.  At exit both read EOF from their cancel pipes and stop;
    when the owner skips its exit handlers, they read it all the same, since
    the owner held the only write ends.  The workers share the owner's
    stderr, so it goes to a file: the test must not wait for them to close
    a pipe."""
    code = ("import os, sys, threading, time\n"
            "from ssltl import ilp\n"
            "from test_worker import solve_once, spinning_workers, "
            "worker_pids\n"
            "ilp._WORKER_ARGS = spinning_workers({0: [0.0, 60.0], "
            "1: [60.0]})\n"
            "ilp._race_seeds = lambda: (0, 1)\n"
            "solve_once()\n"
            "print(*worker_pids().values(), flush=True)\n"
            "threading.Thread(target=solve_once, daemon=True).start()\n"
            "time.sleep(0.5)\n"
            f"{exit_call}\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.run([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, stderr=err, text=True,
                              timeout=120, env=env)
        err.seek(0)
        assert proc.returncode == 0, err.read()
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 2.0
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
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "[]"]
