"""Lifetime of the bundled backend's worker process: one per process,
reused across solves, replaced when it dies or after a fork, and never left
behind by its owner; and the rules by which its search threads race over a
program or split it, and dive into a feasibility program, checked
in-process (``milp_shim.solve_request``, ``milp_shim.search``)."""

import os
import pickle
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from ssltl import ilp, milp_shim
from ssltl.hoa import load_hoa, parse_hoa
from ssltl.ilp import IlpConfig, SolverConfig, build_program, solve
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.model import (GridSpec, Lmdp, SsLtlSpec, generate_grid, load_spec,
                         spec_from_json, validate_lmdp)
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
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def two_state_model(reward: float = 2.0) -> Lmdp:
    """s0 and s1 each stay or go to the other; staying earns 1 at s0 and
    ``reward`` at s1, so the optimum is max(1, ``reward``).  The run begins
    in a state whose one action goes to s0, so the initial product state
    has one pair, and the searches race over the whole program
    (``milp_shim.solve_request``).  Small as it is, HiGHS's presolve leaves
    its program to the MIP solver, which makes interrupt checks
    (``spinning``)."""
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


def two_state_program(reward: float = 2.0,
                      objective: str = "expected_reward"):
    """``two_state_model``'s program; every point of its feasibility
    program is optimal, so each search dives first
    (``milp_shim.search``)."""
    p = build_product(two_state_model(reward), TRUE_DRA)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), NO_SS,
                         IlpConfig(objective=objective))


def solve_once(reward: float = 2.0) -> float:
    sol = solve(two_state_program(reward), SolverConfig(timeout=60))
    assert sol.status == "optimal"
    assert sol.searches == len(ilp._race_seeds())
    return sol.objective


def worker_pid() -> int:
    return ilp._worker.pid


def gone(pid: int) -> bool:
    """No such process, or only its zombie is left."""
    return state(pid) in (None, "Z")


def state(pid):
    """The ``State:`` letter of a process, or of a thread named
    ``pid/task/tid``; None if there is none."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            return next(line.split()[1] for line in fh
                        if line.startswith("State:"))
    except FileNotFoundError:
        return None


def thread_states(pid: int) -> list:
    """The ``State:`` letter of each thread of a process."""
    return [state(f"{pid}/task/{tid}") for tid in os.listdir(
        f"/proc/{pid}/task")]


def children(pid: int) -> list:
    """The pids of a process's children."""
    found = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as fh:
            found += map(int, fh.read().split())
    return found


def spinning(spins: dict, deaf=()):
    """A stand-in for ``milp_shim.run_milp`` under which the search of seed
    s spins (busy, not asleep, though it yields the interpreter lock at
    every turn) ``spins[s][n]`` seconds at the first interrupt check of its
    n-th solve (from 0), the last entry for every later one; seeds without
    an entry do not spin.  The spin checks for a stop as it goes, so a stop
    ends it, and the solve, at once; but the n-th solve of the search of
    seed s checks none when ``(s, n)`` is in ``deaf``.  The stand-in's
    ``stopped`` lists the ``(s, n)`` of each solve stopped, and its
    ``calls`` the number n of the last solve of each seed."""
    run_milp, calls, stopped = milp_shim.run_milp, {}, []

    def spinning_run(*args, random_seed, interrupt, **kwargs):
        n = calls[random_seed] = calls.get(random_seed, -1) + 1
        plan = spins.get(random_seed, [0.0])
        left = [plan[min(n, len(plan) - 1)]]
        if (random_seed, n) in deaf:
            interrupt = lambda: False       # noqa: E731

        def spin():
            deadline, left[0] = time.monotonic() + left[0], 0
            while not interrupt():
                if time.monotonic() >= deadline:
                    return False
                time.sleep(0)
            stopped.append((random_seed, n))
            return True
        return run_milp(*args, random_seed=random_seed, interrupt=spin,
                        **kwargs)
    spinning_run.stopped, spinning_run.calls = stopped, calls
    return spinning_run


def failing(run, seed: int = 0):
    """``run`` under which the first solve of the search of ``seed`` raises
    once it has run."""
    calls = []

    def failing_run(*args, random_seed, **kwargs):
        res = run(*args, random_seed=random_seed, **kwargs)
        if random_seed == seed and not calls:
            calls.append(None)
            raise RuntimeError("the search failed")
        return res
    return failing_run


def spinning_workers(spins: dict, deaf=()) -> tuple:
    """Worker arguments under which the searches spin (see ``spinning``)."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(TESTS)!r})\n"
            "from ssltl import milp_shim\n"
            "from test_worker import spinning\n"
            f"milp_shim.run_milp = spinning({spins!r}, {tuple(deaf)!r})\n"
            "milp_shim.serve()\n")
    return (sys.executable, "-c", code)


@pytest.fixture
def two_searches(monkeypatch):
    """A fresh worker for two racing searches, however many CPUs there
    are; called with a spin plan (see ``spinning``)."""
    def start(spins=None, deaf=()):
        ilp._stop_worker()
        if spins is not None:
            monkeypatch.setattr(ilp, "_WORKER_ARGS",
                                spinning_workers(spins, deaf))
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (0, 1))
    yield start
    ilp._stop_worker()


@pytest.fixture
def in_process(monkeypatch):
    """Two searches that answer every request in this process, as the
    worker does; a test stubs ``milp_shim.run_milp`` to steer them."""
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (0, 1))
    monkeypatch.setattr(ilp, "_ask_worker", milp_shim.solve_request)


def test_solves_share_one_worker():
    """One worker, the same for every solve."""
    solve_once()
    pid = worker_pid()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


def test_two_racing_searches_answer_from_one_worker(two_searches):
    """Search 0 answers the first program while search 1 spins, and search
    1 the second while search 0 spins: both from one worker, the owner's
    only child."""
    two_searches({0: [0.0, 5.0], 1: [5.0, 0.0]})
    first = solve(two_state_program(), SolverConfig(timeout=60))
    pid = worker_pid()
    second = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (first.seed, second.seed) == (0, 1)
    assert worker_pid() == pid and children(os.getpid()) == [pid]


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
    killed = worker_pid()
    ilp._worker.kill()
    ilp._worker.wait()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != killed


def kill_mid_exchange(monkeypatch):
    """Kill the worker when its reply is read."""
    receive = ilp._receive

    def killed_first(p):
        p.kill()
        p.wait()
        p.stdout.read()     # a reply written before the kill is lost
        return receive(p)

    monkeypatch.setattr(ilp, "_receive", killed_first)


def test_worker_killed_mid_exchange_is_a_solver_error(monkeypatch,
                                                      two_searches):
    """With the worker killed before its reply the solve is an error, and
    the next solve starts a new worker."""
    two_searches()
    solve_once()
    killed, receive = worker_pid(), ilp._receive
    kill_mid_exchange(monkeypatch)
    sol = solve(two_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._worker is None
    monkeypatch.setattr(ilp, "_receive", receive)
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() != killed


def test_a_failing_search_leaves_the_other_to_answer(monkeypatch,
                                                     in_process):
    """Search 0 raises at once, and search 1, after a spin of 0.5 s,
    answers the race."""
    monkeypatch.setattr(milp_shim, "run_milp",
                        failing(spinning({1: [0.5]})))
    sol = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.objective, sol.split) == (
        "optimal", 1, 3.0, False)


def test_a_stale_reply_is_never_returned(two_searches):
    """Search 0 answers the first program at once; search 1, deaf to the
    stop, spins 1 s and then solves it too.  In the next exchange search 0
    spins 5 s, and search 1 answers the second program with its optimum,
    never with its answer to the first (staying at s0, which the second
    program rewards 1)."""
    two_searches({1: [1.0, 0.0], 0: [0.0, 5.0]}, deaf=[(1, 0)])
    first = solve(two_state_program(0.5), SolverConfig(timeout=60))
    assert (first.seed, first.objective) == (0, 1.0)
    t0 = time.monotonic()
    second = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (second.status, second.seed, second.objective) == (
        "optimal", 1, 3.0)
    assert time.monotonic() - t0 < 4.0


def test_a_cancelled_search_answers_the_next_program_at_once(two_searches):
    """Search 1, stopped 30 s short of the end of its first solve, answers
    the second program while search 0 spins, without first spending those
    30 s on the first one."""
    two_searches({1: [30.0, 0.0], 0: [0.0, 30.0]})
    assert solve(two_state_program(2.0), SolverConfig(timeout=60)).seed == 0
    t0 = time.monotonic()
    second = solve(two_state_program(3.0), SolverConfig(timeout=60))
    assert (second.seed, second.objective) == (1, 3.0)
    assert time.monotonic() - t0 < 5.0


def test_no_worker_runs_after_synthesize_returns(two_searches):
    """The loser, busy in its solve, is stopped; within 1 s every thread of
    the worker sleeps."""
    two_searches({1: [30.0]})
    result = synthesize(two_state_model(), TRUE_DRA, NO_SS)
    assert result.status == "verified" and result.solution.seed == 0
    pid = worker_pid()
    deadline = time.monotonic() + 1.0
    while (set(thread_states(pid)) != {"S"}
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert set(thread_states(pid)) == {"S"}


def split_program(p_lower: float = 0.0, detour: float = 5.0,
                  objective: str = "expected_reward"):
    """Two copies of ``two_state_model``'s s0 and s1 behind one start
    state, which two searches split on its two pairs: search 0 gets
    "stay", to t0, where staying at t1 earns 2, and search 1 "go", to s0,
    where staying at s1 earns 3.  s1 is labelled p, the long-run mass on p
    must be at least ``p_lower``, and going from s0 to s1 earns
    ``detour``.  No policy earns ``detour`` per step, so with ``detour``
    above 3 no half reaches the largest reward, and both are awaited.
    Each half, unlike the program of one copy alone, goes to the MIP
    solver, which makes interrupt checks (``spinning``).  ``objective``
    is the program's."""
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
                         IlpConfig(objective=objective))


def test_split_halves_are_combined(monkeypatch, in_process):
    """Both halves are optimal, and the program's optimum is the better
    one, with the nodes of both."""
    nodes, run_milp = [], milp_shim.run_milp

    def counting(*args, **kwargs):
        res = run_milp(*args, **kwargs)
        nodes.append(res.mip_node_count)
        return res

    monkeypatch.setattr(milp_shim, "run_milp", counting)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.searches, sol.split) == (
        "optimal", 1, 2, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(3.0) and sol.gap == pytest.approx(0.0)
    assert len(nodes) == 2 and sol.nodes == sum(nodes)
    assert sol.dive is False


def test_a_half_proven_at_the_largest_reward_answers_at_once(monkeypatch,
                                                             in_process):
    """Without the detour's reward no policy earns more than 3 per step,
    and search 1 proves its half's optimum 3: the program is solved, and
    search 0, spinning 30 s in its half, is stopped."""
    run = spinning({0: [30.0]})
    monkeypatch.setattr(milp_shim, "run_milp", run)
    t0 = time.monotonic()
    sol = solve(split_program(detour=0.0), SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 10.0
    assert (sol.status, sol.seed, sol.split) == ("optimal", 1, True)
    assert sol.objective == pytest.approx(3.0)
    deadline = time.monotonic() + 1.0
    while not run.stopped and time.monotonic() < deadline:
        time.sleep(0.01)
    assert run.stopped == [(0, 0)]


def test_split_optimal_and_infeasible_halves_are_optimal(in_process):
    """With mass 1/2 on p asked for, search 0's half is infeasible: it has
    no bound, and the other half's optimum and bound stand."""
    sol = solve(split_program(p_lower=0.5), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("optimal", 1, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(3.0) and sol.gap == pytest.approx(0.0)


def test_split_infeasible_halves_are_infeasible(in_process):
    """No policy puts more than all its mass on p: both halves are
    infeasible, and so is the program."""
    sol = solve(split_program(p_lower=1.5), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("infeasible", None, True)
    assert (sol.bound, sol.gap) == (None, None)
    assert isinstance(sol.nodes, int)


def test_split_half_at_its_limit_leaves_the_program_at_a_limit(
        monkeypatch, in_process):
    """Search 0's half stops at its limit, with its optimum 2 as incumbent
    and 5 as bound: the program is at a limit too, at search 1's point 3,
    with bound 5 and gap 2/3."""
    run_milp = milp_shim.run_milp

    def at_limit(*args, random_seed, **kwargs):
        res = run_milp(*args, random_seed=random_seed, **kwargs)
        if random_seed == 0:
            res.update(status=1, mip_dual_bound=-5.0, mip_gap=4.0)
        return res

    monkeypatch.setattr(milp_shim, "run_milp", at_limit)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.split) == ("feasible", 1, True)
    assert sol.objective == pytest.approx(3.0)
    assert sol.bound == pytest.approx(5.0)
    assert sol.gap == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("spins", [{1: [30.0, 0.0]}, {0: [0.5]}],
                         ids=["survivor-running", "survivor-answered"])
def test_a_search_killed_mid_split_leaves_the_whole_program_to_the_other(
        monkeypatch, in_process, spins):
    """Search 0, which holds the worse half, fails once its solve has run:
    while search 1 still spins 30 s in its half, or after it has answered.
    Search 1 then solves the whole program, at once (a running half is
    stopped), and its optimum is the answer: never the other half's alone
    taken for the program's."""
    monkeypatch.setattr(milp_shim, "run_milp", failing(spinning(spins)))
    t0 = time.monotonic()
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 10.0
    assert (sol.status, sol.seed, sol.searches, sol.split) == (
        "optimal", 1, 2, False)
    assert sol.objective == pytest.approx(3.0)


def test_every_search_killed_mid_split_is_a_solver_error(monkeypatch,
                                                         two_searches):
    """The worker, which runs every search, is killed mid-split."""
    two_searches()
    solve_once()
    kill_mid_exchange(monkeypatch)
    sol = solve(split_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "worker exited" in sol.solver_output
    assert ilp._worker is None


def grid_feasibility_program():
    """The feasibility program of the 4x4 grid of seed 0 under theta4, whose
    LP relaxation and, under seed 0, restriction reach HiGHS's interrupt
    checks (``spinning``)."""
    spec = load_spec(ROOT / "fixtures/specs/theta4.json")
    p = build_product(generate_grid(GridSpec(4, 4, seed=0)),
                      load_hoa(spec.dra_source))
    return build_program(p, accepting_mecs(mec_decomposition(p), p), spec,
                         IlpConfig(objective="feasibility"))


def recording(run):
    """``run`` that keeps ``(program, time_limit, result)`` of each solve in
    its ``solves``, the program an ``ilp.Program``."""
    solves = []

    def recording_run(*arrays, time_limit=None, **kwargs):
        res = run(*arrays, time_limit=time_limit, **kwargs)
        solves.append((ilp.Program(*arrays), time_limit, res))
        return res
    recording_run.solves = solves
    return recording_run


@pytest.fixture
def one_search(monkeypatch):
    """One search, seed 0, that answers every request in this process, its
    solves recorded (``recording``)."""
    run = recording(milp_shim.run_milp)
    monkeypatch.setattr(milp_shim, "run_milp", run)
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (0,))
    monkeypatch.setattr(ilp, "_ask_worker", milp_shim.solve_request)
    return run


@pytest.mark.parametrize("seed", [0, 1])
def test_a_feasibility_program_answers_from_the_dive(monkeypatch, one_search,
                                                    seed):
    """The search solves the LP relaxation, then the restriction it leaves,
    and answers with the restriction's point, which meets every row and
    bound of the program."""
    monkeypatch.setattr(ilp, "_race_seeds", lambda: (seed,))
    model = two_state_program(objective="feasibility")
    program, order = ilp.highs_arrays(model)
    sol = solve(model, SolverConfig(timeout=60))
    assert (sol.status, sol.seed, sol.dive) == ("optimal", seed, True)
    (relaxed, _, _), (restricted, _, res) = one_search.solves
    assert not relaxed.integrality.any() and restricted.integrality.any()
    fixed_lb, fixed_ub = restricted.lb, restricted.ub
    assert np.all(fixed_lb >= program.lb) and np.all(fixed_ub <= program.ub)
    assert np.any((fixed_lb == fixed_ub) & (program.lb < program.ub))
    assert sol.nodes == res.mip_node_count
    c, rows, cols, vals, row_lb, row_ub, lb, ub, integrality = program
    x = sol.values[order]
    ax = sparse.coo_array((vals, (rows, cols)),
                          shape=(len(row_lb), len(c))) @ x
    assert np.all(ax >= row_lb - 1e-7) and np.all(ax <= row_ub + 1e-7)
    assert np.all(x >= lb - 1e-7) and np.all(x <= ub + 1e-7)
    binaries = x[integrality == 1]
    assert np.allclose(binaries, np.round(binaries), atol=1e-7)


def test_a_restriction_without_a_point_leaves_the_whole_program(monkeypatch,
                                                               one_search):
    """With every binary fixed at 0 the restriction has no point (the
    initial state must take a pair): the search solves the whole program in
    the time left, answers as a plain HiGHS run does, and counts the nodes
    of both solves."""
    monkeypatch.setattr(milp_shim, "_restriction", lambda program, x: (
        program._replace(ub=np.where(program.integrality == 1, 0.0,
                                     program.ub))))
    model = two_state_program(objective="feasibility")
    program, _ = ilp.highs_arrays(model)
    sol = solve(model, SolverConfig(timeout=60))
    assert (sol.status, sol.dive) == ("optimal", False)
    _, (_, _, restricted), (whole, limit, res) = one_search.solves
    assert restricted.status == 2
    assert all(np.array_equal(a, b) for a, b in zip(whole, program))
    assert 50.0 < limit < 60.0
    assert sol.nodes == restricted.mip_node_count + res.mip_node_count
    assert res.status == 0 and sol.objective == 0.0


def test_an_lp_infeasible_program_is_infeasible_without_a_mip(one_search):
    """More than all the mass on p: the LP relaxation has no point, and the
    program is infeasible with no MIP solve and no node."""
    sol = solve(split_program(p_lower=1.5, objective="feasibility"),
                SolverConfig(timeout=60))
    assert (sol.status, sol.nodes, sol.dive) == ("infeasible", 0, False)
    [(relaxed, _, res)] = one_search.solves
    assert not relaxed.integrality.any() and res.status == 2


def test_a_reward_program_never_dives(one_search):
    sol = solve(two_state_program(), SolverConfig(timeout=60))
    [(program, limit, res)] = one_search.solves
    assert program.integrality.any() and limit == 60.0
    assert (sol.status, sol.dive, sol.nodes) == (
        "optimal", False, res.mip_node_count)


GF_P_DRA = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "p"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {1}
[!0] 0
[0] 1
--END--
""")


def loop_instance(r_lower: float, objective: str = "feasibility",
                  r_at_w: bool = False) -> tuple:
    """The model, automaton, spec and program knobs of this instance:
    infinitely often p, with long-run mass at least ``r_lower`` on r.
    The run begins in "start", whose action "a" goes to s0 (labelled r) and
    whose action "b", with ``objective`` a reward, goes to w (labelled p,
    and r if ``r_at_w``), where staying earns 1.  s0 and s1 (labelled p)
    each stay or go to the other, and going from s0 earns 5, which no
    policy earns per step.  Staying at s0 is a rejecting self-loop, the
    program's only one: a verified policy that takes "a" stays at s1 or
    goes round s0 and s1, and puts at most 1/2 on r.  The LP relaxation
    can park x on s0's loop, so with ``r_lower`` above 1/2 only the barred
    LP sees that "a" leads to no policy.  A reward program is split on
    "a" and "b": search 0 gets "a"."""
    reward = objective != "feasibility"
    states = ("start", "s0", "s1") + (("w",) if reward else ())
    trans = {("start", "a"): {"s0": 1.0}, ("s0", "stay"): {"s0": 1.0},
             ("s0", "go"): {"s1": 1.0}, ("s1", "stay"): {"s1": 1.0},
             ("s1", "go"): {"s0": 1.0}}
    enabled = {"start": ("a",), "s0": ("stay", "go"), "s1": ("stay", "go")}
    labels = {"start": frozenset(), "s0": frozenset({"r"}),
              "s1": frozenset({"p"})}
    rewards = {("s0", "go", "s1"): 5.0}
    if reward:
        trans[("start", "b")], trans[("w", "stay")] = {"w": 1.0}, {"w": 1.0}
        enabled["start"], enabled["w"] = ("a", "b"), ("stay",)
        labels["w"] = frozenset({"p", "r"} if r_at_w else {"p"})
        rewards[("w", "stay", "w")] = 1.0
    m = validate_lmdp(Lmdp(
        states=states, actions=("a", "b", "stay", "go"), enabled=enabled,
        trans=trans, reward=rewards, ap=("p", "r"), labels=labels,
        initial="start"))
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "r", "lower": r_lower, "upper": 1.0}]})
    return m, GF_P_DRA, spec, IlpConfig(objective=objective)


def loop_program(*args):
    """The program of ``loop_instance(*args)``."""
    m, dra, spec, cfg = loop_instance(*args)
    p = build_product(m, dra)
    return build_program(p, accepting_mecs(mec_decomposition(p), p), spec,
                         cfg)


def is_barred_lp(program: ilp.Program, whole: ilp.Program,
                 loops: np.ndarray) -> bool:
    """Whether ``program`` is ``whole``'s LP relaxation with the upper bound
    of the columns ``loops`` set to 0, and no other bound moved."""
    ub = whole.ub.copy()
    ub[loops] = 0.0
    return (not program.integrality.any()
            and np.array_equal(program.lb, whole.lb)
            and np.array_equal(program.ub, ub))


def test_a_failed_dive_whose_barred_lp_has_no_point_is_infeasible(
        one_search):
    """The LP relaxation parks x on s0's loop, the restriction it leaves
    has no point, and the LP with that loop barred has none either: the
    program is infeasible, with the restriction's nodes, and the whole
    program never reaches HiGHS with its integrality."""
    model = loop_program(0.9)
    program, order = ilp.highs_arrays(model)
    loops = ilp._rejecting_loops(model, order)
    assert len(loops) == 1
    sol = solve(model, SolverConfig(timeout=60))
    assert (sol.status, sol.dive, sol.barred) == ("infeasible", False, 1)
    (relaxed, _, lp), (restricted, _, res), (barred, limit, check) = \
        one_search.solves
    assert not relaxed.integrality.any() and lp.status == 0
    assert restricted.integrality.any() and res.status == 2
    assert is_barred_lp(barred, program, loops) and check.status == 2
    assert 50.0 < limit < 60.0
    assert sol.nodes == res.mip_node_count
    m, dra, spec, cfg = loop_instance(0.9)
    result = synthesize(m, dra, spec, cfg)
    assert result.status == "infeasible" and result.rounds == 1
    assert result.detail == (
        "no policy: the LP relaxation has no point once x is kept off the "
        "1 absorbing self-loop that no Rabin pair accepts")


def test_a_barred_lp_with_a_point_leaves_the_whole_program(monkeypatch,
                                                          one_search):
    """Mass 1/2 on r is met by going round s0 and s1.  A reward program
    is not dived, and its barred LP, which is no dive, has a point: the
    search goes on to the whole program, in the time left, and answers as
    it does with no loop to bar."""
    model = loop_program(0.5, "expected_reward")
    program, order = ilp.highs_arrays(model)
    loops = ilp._rejecting_loops(model, order)
    sol = solve(model, SolverConfig(timeout=60))
    (barred, _, check), (whole, limit, res) = one_search.solves
    assert is_barred_lp(barred, program, loops) and check.status == 0
    assert all(np.array_equal(a, b) for a, b in zip(whole, program))
    assert 50.0 < limit < 60.0
    assert (sol.status, sol.dive, sol.barred, sol.nodes) == (
        "optimal", False, 0, res.mip_node_count)
    monkeypatch.setattr(ilp, "_rejecting_loops",
                        lambda model, order: np.array([], dtype=np.int64))
    plain = solve(model, SolverConfig(timeout=60))
    assert len(one_search.solves) == 3
    assert (plain.status, plain.objective) == (sol.status, sol.objective)
    assert sol.objective == pytest.approx(2.5)


@pytest.mark.parametrize("r_at_w, status, objective, barred", [
    (True, "optimal", 1.0, 0), (False, "infeasible", None, 1)],
    ids=["other-half-optimal", "both-halves-barred"])
def test_a_reward_half_answers_from_its_barred_lp(monkeypatch, in_process,
                                                  r_at_w, status, objective,
                                                  barred):
    """Search 0's half, which takes "a", answers ``Infeasible`` from its
    barred LP, with no MIP solve; the program's answer is search 1's half's
    ("b": staying at w, mass 1 on r, reward 1), and it is barred only when
    that half is too (no mass on r at w)."""
    run = recording(milp_shim.run_milp)
    monkeypatch.setattr(milp_shim, "run_milp", run)
    sol = solve(loop_program(0.9, "expected_reward", r_at_w),
                SolverConfig(timeout=60))
    assert (sol.status, sol.split, sol.barred) == (status, True, barred)
    assert sol.objective == (None if objective is None
                             else pytest.approx(objective))
    infeasible = [prog for prog, _, res in run.solves if res.status == 2]
    assert infeasible and not any(prog.integrality.any()
                                  for prog in infeasible)
    assert len(run.solves) == 3 - barred


def test_only_the_first_search_of_a_race_checks(monkeypatch):
    """The barred LP's answer does not depend on the seed, so of two
    searches racing over a feasibility program only search 0 solves it.
    Search 0's check is held up, and search 1 goes from its failed dive
    straight to the whole program, which it proves infeasible by branch
    and bound: the answer is its own, and not barred."""
    model = loop_program(0.9)
    program, order = ilp.highs_arrays(model)
    loops = ilp._rejecting_loops(model, order)
    plain, checked, seeds = milp_shim.run_milp, threading.Event(), []

    def run(*arrays, random_seed=0, **kwargs):
        if is_barred_lp(ilp.Program(*arrays), program, loops):
            seeds.append(random_seed)
            checked.set()
            time.sleep(0.5)
        elif arrays[-1].any() and np.array_equal(arrays[7], program.ub):
            assert checked.wait(10.0)   # the whole program, after the dive
        return plain(*arrays, random_seed=random_seed, **kwargs)
    monkeypatch.setattr(milp_shim, "run_milp", run)
    reply = milp_shim.solve_request(program, 60.0, (0, 1), [], loops)
    assert (reply.status, reply.seed, reply.barred) == ("Infeasible", 1, 0)
    assert seeds == [0]


@pytest.mark.parametrize("plan", [[30.0], [0.0, 30.0]],
                         ids=["lp-relaxation", "restriction"])
def test_a_search_stopped_in_its_dive_stops(monkeypatch, in_process, plan):
    """Search 0 spins 30 s in its LP relaxation, which stops at HiGHS's
    simplex interrupt checks (``run_milp``), or in the restriction; search
    1 answers from its dive, and search 0 stops where it spins, without
    going on to the whole program."""
    run = spinning({0: plan})
    monkeypatch.setattr(milp_shim, "run_milp", run)
    t0 = time.monotonic()
    sol = solve(grid_feasibility_program(), SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 10.0
    assert (sol.status, sol.seed, sol.dive) == ("optimal", 1, True)
    deadline = time.monotonic() + 1.0
    while not run.stopped and time.monotonic() < deadline:
        time.sleep(0.01)
    assert run.stopped == [(0, len(plan) - 1)]
    time.sleep(0.2)
    assert run.calls[0] == len(plan) - 1


def test_a_search_stopped_in_its_check_stops(monkeypatch, in_process):
    """On the 4x3 grid of seed 0 under theta2 with d in [0.9, 1], both
    dives fail.  Search 0 spins 30 s in its check, its third solve, while
    search 1, which does not check, proves the program infeasible by branch
    and bound; search 0 then stops in its check, without going on to the
    whole program."""
    spec = spec_from_json({"dra": "x", "ss": [
        {"formula": "d", "lower": 0.9, "upper": 1.0}]})
    p = build_product(generate_grid(GridSpec(4, 3, seed=0)),
                      load_hoa(ROOT / "fixtures/automata/theta2.hoa"))
    model = build_program(p, accepting_mecs(mec_decomposition(p), p), spec,
                          IlpConfig(objective="feasibility"))
    run = spinning({0: [0.0, 0.0, 30.0]})
    monkeypatch.setattr(milp_shim, "run_milp", run)
    t0 = time.monotonic()
    sol = solve(model, SolverConfig(timeout=60))
    assert time.monotonic() - t0 < 20.0
    assert (sol.status, sol.seed, sol.barred) == ("infeasible", 1, 0)
    deadline = time.monotonic() + 1.0
    while not run.stopped and time.monotonic() < deadline:
        time.sleep(0.01)
    assert run.stopped == [(0, 2)]
    time.sleep(0.2)
    assert run.calls[0] == 2


def fail_the_request(monkeypatch):
    program, order = ilp.highs_arrays(two_state_program())
    # columns out of range
    bad = program._replace(a_cols=program.a_cols + len(program.c))
    monkeypatch.setattr(ilp, "highs_arrays", lambda model: (bad, order))


def test_failed_request_is_a_solver_error_and_keeps_the_worker(monkeypatch):
    """Every search fails the request; the worker lives on."""
    solve_once()
    pid = worker_pid()
    fail_the_request(monkeypatch)
    sol = solve(two_state_program(), SolverConfig(timeout=60))
    assert sol.status == "error" and "no solution" in sol.solver_output
    monkeypatch.undo()
    assert solve_once() == pytest.approx(2.0)
    assert worker_pid() == pid


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


def test_solver_prints_reach_neither_the_replies_nor_stderr():
    """Whatever the solver writes to fd 1 is dropped: the reply arrives
    intact and alone, and the worker's stderr stays empty.  The test holds
    the worker's stdin open until the reply is read, since the searches
    stop when the owner closes it."""
    code = ("import os\n"
            "from ssltl import milp_shim\n"
            "run_milp = milp_shim.run_milp\n"
            "def noisy(*args, **kwargs):\n"
            "    os.write(1, b'noise\\n')\n"
            "    return run_milp(*args, **kwargs)\n"
            "milp_shim.run_milp = noisy\n"
            "milp_shim.serve()\n")
    program, _ = ilp.highs_arrays(two_state_program())
    proc = subprocess.Popen(
        (sys.executable, "-c", code), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    try:
        pickle.dump((program, 60.0, (1,), [], []), proc.stdin)
        proc.stdin.flush()
        reply = pickle.load(proc.stdout)
        rest, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, rest, err) == (0, b"", b"")
    assert (reply.status, reply.dive, reply.seed, reply.split) == (
        "Optimal", False, 1, False)
    assert reply.nodes is not None
    assert -program.c @ reply.x == pytest.approx(2.0)


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
    """The child closes its copies of the pipes to the parent's worker at
    once, so that the parent stays its only owner."""
    solve_once()
    parent_worker = worker_pid()
    parent_pipes = [ilp._worker.stdin.fileno(), ilp._worker.stdout.fileno()]
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:              # pragma: no cover - runs in the child
        code = 1
        try:
            os.close(read_end)
            for fd in parent_pipes:
                try:
                    os.fstat(fd)
                    os._exit(2)
                except OSError:
                    pass
            objective = solve_once()
            os.write(write_end, f"{objective!r} {worker_pid()}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        reply = fh.read()
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    objective, child_worker = reply.split()
    assert float(objective) == pytest.approx(2.0)
    assert int(child_worker) not in (child, parent_worker)
    assert worker_pid() == parent_worker
    assert solve_once() == pytest.approx(2.0)


def exit_mid_solve(tmp_path, exit_call: str, seeds: tuple,
                   spins: dict) -> None:
    """Run an owner whose searches of ``seeds`` spin as ``spins`` plans
    (see ``spinning``), and which exits by ``exit_call`` 0.5 s into its
    second solve; its worker must be gone 2 s later.  The worker shares the
    owner's stderr, so it goes to a file: the test must not wait for the
    worker to close a pipe."""
    code = ("import os, sys, threading, time\n"
            "from ssltl import ilp\n"
            "from test_worker import solve_once, spinning_workers, "
            "worker_pid\n"
            f"ilp._WORKER_ARGS = spinning_workers({spins!r})\n"
            f"ilp._race_seeds = lambda: {seeds!r}\n"
            "solve_once()\n"
            "print(worker_pid(), flush=True)\n"
            "threading.Thread(target=solve_once, daemon=True).start()\n"
            "time.sleep(0.5)\n"
            f"{exit_call}\n")
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]))
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.run([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, stderr=err, text=True,
                              timeout=120, env=env)
        err.seek(0)
        assert proc.returncode == 0, err.read()
    pid = int(proc.stdout)
    deadline = time.monotonic() + 2.0
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(pid)


@pytest.mark.parametrize("exit_call", ["sys.exit(0)", "os._exit(0)"])
def test_owner_exit_leaves_no_worker(exit_call, tmp_path):
    """The owner exits while both searches spin in their second solve, 60 s
    from its end.  At exit it closes the worker's stdin, and both searches
    see the hangup and stop; when the owner skips its exit handlers, they
    see it all the same, since the owner held the only write end."""
    exit_mid_solve(tmp_path, exit_call, (0, 1), {0: [0.0, 60.0], 1: [60.0]})


def test_owner_death_stops_a_lone_search(tmp_path):
    """A lone search, which no other search can stop, still stops when its
    owner dies without running its exit handlers."""
    exit_mid_solve(tmp_path, "os._exit(0)", (0,), {0: [0.0, 60.0]})


def test_default_route_never_imports_scipy_into_the_caller():
    """The bundled backend's scipy lives in the worker only; the caller's
    memory and start-up stay free of it, also as it unpickles the replies
    of a raced feasibility program and of a split reward program (two
    searches run, however many CPUs there are)."""
    code = ("import sys\n"
            "from ssltl import ilp\n"
            "from ssltl.hoa import load_hoa\n"
            "from ssltl.model import GridSpec, generate_grid, load_spec\n"
            "from ssltl.synthesis import synthesize\n"
            "ilp._race_seeds = lambda: (0, 1)\n"
            "spec = load_spec('fixtures/specs/theta4.json')\n"
            "for objective in ('feasibility', 'expected_reward'):\n"
            "    result = synthesize(generate_grid(GridSpec(4, 4, seed=0)),\n"
            "                        load_hoa(spec.dra_source), spec,\n"
            "                        cfg=ilp.IlpConfig(objective=objective))\n"
            "    print(result.status, result.solution.split,\n"
            "          sorted(m for m in sys.modules\n"
            "                 if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PATH=os.path.dirname(sys.executable),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["verified", "False", "[]",
                                   "verified", "True", "[]"]
