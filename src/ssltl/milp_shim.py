"""The bundled MILP backend: HiGHS through its own binding in scipy, reached
in one of two ways that share one HiGHS run (``run_milp``).

* ``serve``: a long-lived worker process.  ``ssltl.ilp`` starts one in
  each process and sends it each program as pickled arrays over its stdin,
  with the HiGHS seeds of the searches that solve it.  The searches run as
  threads of the worker; they race over the program, or split it
  (``solve_request``), and the worker sends back one reply.  A search of
  a feasibility program dives first: it solves the restriction its LP
  relaxation leaves, and goes on to the whole program only when that has
  no point.  Before a search branches and bounds on the whole program, it
  may check: it solves the LP relaxation with the program's rejecting
  self-loops barred, and answers ``Infeasible`` when that has no point
  (``search``; in a race only the first search checks).  The wire format
  lives in ``ssltl.ilp``, not here: a request is the pickled arguments of
  ``solve_request``, whose program is an ``ilp.Program``, and a reply is
  an ``ilp.Reply``.  The caller unpickles every reply, and pickle imports
  the module that defines its type, so the caller stays free of scipy.
* The stand-alone command, which reads a CPLEX-LP-format file with HiGHS's
  own LP reader (``parse_lp``), whatever the file's name, hands HiGHS the
  program as ``run_milp``'s arrays in one plain run, with no dive, and
  writes a plain ``name value`` solution file:
  ``python -m ssltl.milp_shim MODEL.lp OUT.sol [--time-limit S]`` (also
  installed as the ``ssltl-milp`` script).  It prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import queue
import select
import signal
import sys
import tempfile
import threading
import time
import traceback
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult
# HiGHS's own binding, which scipy's ``milp`` wraps (scipy 1.15 on)
from scipy.optimize._highspy import _core as highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from ssltl.ilp import Program, Reply, write_solution


class LpFile(NamedTuple):
    """An LP file as HiGHS's LP reader reads it.  The cost of ``program``
    is ``-sign`` times the file's objective without the constant ``offset``
    (``sign`` is 1 for Maximize, -1 for Minimize), so the file's objective
    at a point of cost ``fun`` is ``offset - sign * fun``.  ``names`` holds
    the column names, the columns numbered in the order in which the file
    first mentions them."""

    program: Program
    names: list
    sign: float
    offset: float


def parse_lp(text: str) -> LpFile:
    """Read CPLEX LP text with HiGHS's reader.  Raises ValueError for text
    the reader refuses."""
    solver = highs._Highs()
    # else HiGHS prints its banner on stdout
    solver.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory(prefix="ssltl_") as tmp:
        # HiGHS picks its reader by the file's extension
        path = os.path.join(tmp, "model.lp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if solver.readModel(path) == highs.HighsStatus.kError:
            raise ValueError("HiGHS cannot read the LP text")
    lp = solver.getLp()
    sign = 1.0 if lp.sense_ == highs.ObjSense.kMaximize else -1.0
    n, a = lp.num_col_, lp.a_matrix_
    start = np.asarray(a.start_, dtype=np.int64)
    integrality = (np.array([int(v) for v in lp.integrality_],
                            dtype=np.float64)
                   if lp.integrality_ else np.zeros(n))
    program = Program(-sign * np.asarray(lp.col_cost_, dtype=np.float64),
                      np.asarray(a.index_, dtype=np.int64),
                      np.repeat(np.arange(n, dtype=np.int64), np.diff(start)),
                      np.asarray(a.value_, dtype=np.float64),
                      np.asarray(lp.row_lower_, dtype=np.float64),
                      np.asarray(lp.row_upper_, dtype=np.float64),
                      np.asarray(lp.col_lower_, dtype=np.float64),
                      np.asarray(lp.col_upper_, dtype=np.float64),
                      integrality)
    return LpFile(program, list(lp.col_names_), sign, float(lp.offset_))


def _finite(value):
    return float(value) if value is not None and math.isfinite(value) else None


_STATUS = highs.HighsModelStatus
# the statuses at which a MIP's incumbent, if it has one, is returned
_LIMITS = (_STATUS.kTimeLimit, _STATUS.kIterationLimit,
           _STATUS.kSolutionLimit)


def run_milp(c, a_rows, a_cols, a_vals, row_lb, row_ub, lb, ub, integrality,
             time_limit=None, mip_rel_gap=None, random_seed=0,
             interrupt=None):
    """Minimize ``c @ x`` subject to ``row_lb <= A x <= row_ub`` and
    ``lb <= x <= ub``, with ``A`` given as COO triplets and the columns whose
    ``integrality`` is 1 integer.  ``random_seed`` seeds HiGHS's search.
    HiGHS gets the same column-wise matrix and options as from scipy's
    ``milp``, so it searches the same way.  ``interrupt``, if given, is
    called at HiGHS's MIP interrupt checks, and in an LP (no integer
    column) at its simplex interrupt checks, which HiGHS does not make in a
    MIP solve; the solve stops when it is true.

    Returns an OptimizeResult with ``milp``'s ``status`` and ``message``
    (status 4 for an interrupted solve), and ``x`` and ``fun`` where
    ``milp`` has a point (at a limit, a MIP's incumbent); for a program with
    an integer column, ``mip_node_count`` whatever the status, and
    ``mip_dual_bound`` and ``mip_gap`` where they are finite."""
    a = sparse.csc_array((a_vals, (a_rows, a_cols)),
                         shape=(len(row_lb), len(c)))
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lb)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = a.indptr, a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
    lp.row_lower_, lp.row_upper_ = row_lb, row_ub
    lp.integrality_ = [highs.HighsVarType(int(v)) for v in integrality]

    solver = highs._Highs()
    solver.setOptionValue("log_to_console", False)
    solver.setOptionValue("random_seed", int(random_seed))
    if time_limit is not None:
        solver.setOptionValue("time_limit", float(time_limit))
    if mip_rel_gap is not None:
        solver.setOptionValue("mip_rel_gap", float(mip_rel_gap))
    if interrupt is not None:
        def check(kind, message, data_out, data_in, user_data):
            if interrupt():
                data_in.user_interrupt = True
        solver.setCallback(check, None)
        solver.startCallback(highs.cb.HighsCallbackType.kCallbackMipInterrupt)
        solver.startCallback(
            highs.cb.HighsCallbackType.kCallbackSimplexInterrupt)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejects the program")
    solver.run()

    status, info = solver.getModelStatus(), solver.getInfo()
    mip = bool(np.any(integrality))
    solved = status == _STATUS.kOptimal or (
        mip and status in _LIMITS
        and info.objective_function_value != highs.kHighsInf)
    code, message = _highs_to_scipy_status_message(
        status, solver.modelStatusToString(status))
    return OptimizeResult(
        status=code, message=message,
        x=np.array(solver.getSolution().col_value) if solved else None,
        fun=info.objective_function_value if solved else None,
        mip_node_count=info.mip_node_count if mip else None,
        mip_dual_bound=_finite(info.mip_dual_bound) if mip else None,
        mip_gap=_finite(info.mip_gap) if mip else None)


def solve_lp_problem(prob: LpFile, time_limit=None, mip_rel_gap=None):
    """Solve the program of an LP file.  Returns scipy's OptimizeResult and
    the file's objective at its point, or None without a point."""
    res = run_milp(*prob.program, time_limit=time_limit,
                   mip_rel_gap=mip_rel_gap)
    return res, None if res.x is None else prob.offset - prob.sign * res.fun


def model_status(res, time_limit=None) -> str:
    """The ``Model status:`` text of a ``run_milp`` result."""
    if res.status == 0:
        return "Optimal"
    if res.status == 2:
        return "Infeasible"
    if res.status == 3:
        return "Unbounded"
    if res.x is not None:
        return "Feasible (limit reached)"
    if res.status == 1 and time_limit is not None:
        return f"Time limit reached ({time_limit:g} s)"
    return "Error"


def solve_request(program: Program, time_limit, seeds, groups, loops,
                  hangup=None) -> Reply:
    """Solve ``program`` within ``time_limit`` seconds with one search per
    HiGHS seed in ``seeds``, each in the thread of this process that runs
    the searches of that seed (``_search_thread``), and return the reply of
    the answering search (``search``; a feasibility program's search dives
    first).  A search that checks bars the HiGHS columns ``loops``, the x
    of the rejecting self-loops of ``ilp._rejecting_loops``, in one LP
    before it branches and bounds: every half of a split, and the first
    search of a race, as that LP's answer does not depend on the seed.  A
    search stops at HiGHS's next interrupt check once the program is
    answered, or once the write end of the pipe ``hangup``, if given, is
    closed.

    ``groups`` holds the HiGHS columns of the policy binaries of the
    initial product state's pairs, in groups of interchangeable pairs
    (``ilp._initial_groups``).  With at least as many groups as searches,
    the searches *split* the program: the groups are dealt into one part
    per search, and search s gets the program with the upper bound of
    every other part's binaries set to 0 (``_closed``).  The
    split is exact, whatever the partition: row (iv) of the initial state
    puts ``pi`` = 1 on exactly one of its pairs, so every feasible point is
    feasible in the half whose part holds that pair, and each half, the
    program with tighter bounds, has no other point.  So the program's
    optimum is the better of the halves' optima, it is infeasible exactly
    when every half is, and the larger of the halves' proven bounds bounds
    it (``_combine``).  Grouping only keeps a search from repeating
    another's tree: two pairs with the same successor row and objective
    coefficient meet the same rows.  Every half's reply is awaited, unless
    one is optimal at the largest objective any point can reach
    (``_at_ceiling``), which proves the program's optimum: the other halves
    are then stopped, and the nodes are that half's alone.  When a half
    fails, the others are stopped and the searches that did not fail race
    the whole program, so a half is never combined with nothing.

    Otherwise the searches *race* the whole program, and the first reply
    wins: the searches still running are stopped, and their replies never
    read.  A search that raises answers ``Error``, which is returned only
    when no other search is left."""
    n = len(seeds)
    split = 1 < n <= len(groups)
    if split:
        programs = [_closed(program, [g for i, g in enumerate(groups)
                                      if i % n != s]) for s in range(n)]
    else:
        programs = [program] * n
    replies, done = queue.SimpleQueue(), threading.Event()
    for s, (seed, part) in enumerate(zip(seeds, programs)):
        _search_thread(seed).put((part, time_limit, seed,
                                  loops if split or s == 0 else [], replies,
                                  done, hangup))
    answers, failed = [], []
    try:
        for _ in seeds:
            reply = replies.get()
            if reply.status.startswith("Error"):
                failed.append(reply)
                if split:
                    break
            elif not split or _at_ceiling(reply, program.c):
                return reply._replace(split=split)
            else:
                answers.append(reply)
    finally:
        done.set()
    if not failed:
        return _combine(answers, program.c)
    left = [seed for seed in seeds if seed not in {r.seed for r in failed}]
    if split and left:
        return solve_request(program, time_limit, left, [], loops, hangup)
    return failed[-1]


_searches: dict = {}        # {seed: the searches its thread has yet to run}


def _search_thread(seed: int) -> queue.SimpleQueue:
    """The queue of searches of the thread of ``seed``, started on first
    use.  The thread runs them one after another for as long as the process
    lives: so a stopped search ends before its seed's next one starts, and
    HiGHS reuses the thread's memory (a new thread per search took about 20
    ms more on small programs, as its first allocations touch new pages)."""
    if seed not in _searches:
        _searches[seed] = queue.SimpleQueue()
        threading.Thread(target=_run_searches, args=(_searches[seed],),
                         daemon=True).start()
    return _searches[seed]


def _run_searches(searches: queue.SimpleQueue) -> None:
    while True:
        _search(*searches.get())


# a fork child has none of the search threads
os.register_at_fork(after_in_child=_searches.clear)


def _search(program: Program, time_limit, seed: int, loops,
            replies: queue.SimpleQueue, done: threading.Event,
            hangup) -> None:
    """One search of ``solve_request``: put its reply in ``replies``, and
    stop at an interrupt check once ``done`` is set or the write end of
    pipe ``hangup`` is closed.  Each search polls with a poller of its own,
    since one poller cannot poll in two threads at once; a poll of no wait
    costs less than a read."""
    poller = select.poll()
    if hangup is not None:
        poller.register(hangup, select.POLLHUP)
    try:
        reply = search(program, time_limit, seed, loops,
                       lambda: done.is_set() or bool(poller.poll(0)))
    except Exception as exc:  # reported to the owner, not fatal here
        traceback.print_exc()
        reply = Reply(f"Error ({type(exc).__name__}: {exc})", seed=seed)
    replies.put(reply)


# a binary the LP relaxation leaves this close to 0 or 1 is fixed in the dive
_FIX_TOL = 1e-9


def search(program: Program, time_limit, seed: int, loops,
           interrupt) -> Reply:
    """Solve ``program`` under HiGHS seed ``seed`` and within
    ``time_limit`` seconds, stopping once ``interrupt()`` is true, and
    return the reply, which carries ``seed``.

    A program with integer columns and no cost, a feasibility program,
    whose every point is optimal, is *dived* first, as RENS does (Berthold,
    Math. Prog. Comp. 2014), but before HiGHS's root cut loop, whose cuts
    cannot move a bound that is 0 from the root LP on:

    1. Solve the LP relaxation.  If it has no point, neither has the
       program: the answer is ``Infeasible``, with 0 nodes.
    2. Else fix every binary the relaxation's point leaves within
       ``_FIX_TOL`` of 0 or 1 (``_restriction``) and solve the restriction.
       Its bounds are tighter than the program's, so a point of it is a
       point of the program, and the answer is ``Optimal`` there.

    Before the search branches and bounds on the whole program (a
    feasibility program's when the restriction has no point, or is stopped
    at the time limit; any other program's at once), it *checks*: it solves
    the LP relaxation with the upper bound of the HiGHS columns ``loops``
    set to 0.  They are the x of the program's rejecting self-loops, pairs
    that return to their own product state with probability 1 and that no
    Rabin pair accepts there, and no verified policy puts limiting mass on
    one (``ilp._rejecting_loops``).  So when that LP has no point, no
    policy exists: the answer is ``Infeasible``, with the dive's nodes and
    ``barred`` the number of columns barred.  The check is no dive: its
    point is never used, and without ``loops`` it is skipped.

    Else the whole program gets the time left, and its nodes add to the
    restriction's.  A search stopped in the dive or the check answers
    ``Error``, as a stopped HiGHS run does; both LP and MIP solves stop at
    their interrupt checks (``run_milp``)."""
    start, limit, nodes = time.monotonic(), time_limit, 0
    relaxation = program._replace(
        integrality=np.zeros_like(program.integrality))
    if not np.any(program.c) and np.any(program.integrality):
        res = run_milp(*relaxation, time_limit=time_limit, random_seed=seed,
                       interrupt=interrupt)
        if res.status == 2:
            return Reply("Infeasible", nodes=0, seed=seed)
        if res.status == 0:
            res = run_milp(*_restriction(program, res.x),
                           time_limit=_left(time_limit, start),
                           random_seed=seed, interrupt=interrupt)
            nodes = res.mip_node_count
            if res.x is not None:
                return Reply("Optimal", res.x, res.mip_dual_bound,
                             res.mip_gap, nodes, dive=True, seed=seed)
        if interrupt():
            return Reply("Error (stopped in the dive)", nodes=nodes,
                         seed=seed)
        limit = _left(time_limit, start)
    if len(loops):
        res = run_milp(*_closed(relaxation, [loops]), time_limit=limit,
                       random_seed=seed, interrupt=interrupt)
        if res.status == 2:
            return Reply("Infeasible", nodes=nodes, seed=seed,
                         barred=len(loops))
        if interrupt():
            return Reply("Error (stopped in the check)", nodes=nodes,
                         seed=seed)
        limit = _left(time_limit, start)
    res = run_milp(*program, random_seed=seed, time_limit=limit,
                   interrupt=interrupt)
    return Reply(model_status(res, time_limit), res.x, res.mip_dual_bound,
                 res.mip_gap, None if res.mip_node_count is None
                 else nodes + res.mip_node_count, seed=seed)


def _left(time_limit, start: float):
    """What is left of ``time_limit`` seconds (None: no limit) that began at
    ``time.monotonic()`` = ``start``."""
    if time_limit is None:
        return None
    return max(0.0, time_limit - (time.monotonic() - start))


def _restriction(program: Program, x: np.ndarray) -> Program:
    """``program`` with each integer column that ``x`` leaves within
    ``_FIX_TOL`` of 0 or 1 fixed at that value."""
    lb, ub = program.lb.copy(), program.ub.copy()
    fixed = (program.integrality == 1) & (
        np.minimum(np.abs(x), np.abs(x - 1.0)) <= _FIX_TOL)
    lb[fixed] = ub[fixed] = np.round(x[fixed])
    return program._replace(lb=lb, ub=ub)


def _closed(program: Program, groups: list) -> Program:
    """``program`` with the upper bound of the columns in ``groups`` set to
    0."""
    ub = program.ub.copy()
    ub[np.concatenate(groups)] = 0.0
    return program._replace(ub=ub)


def _at_ceiling(reply: Reply, c: np.ndarray) -> bool:
    """Whether a half's reply is optimal at a point no point of the program
    beats: the objective weighs only x, whose entries sum to 1 (row (ii)),
    so no point costs less than ``min(c)``."""
    return reply.status == "Optimal" and bool(
        c @ reply.x <= c.min() + 1e-9 * max(1.0, -c.min()))


def _combine(answers: list, c: np.ndarray) -> Reply:
    """The reply of a split program from its halves' replies, in HiGHS's
    terms (minimize ``c @ x``): optimal when every half is optimal or
    infeasible, infeasible when every half is; else at a limit, with a
    point if any half has one.  The point is the better incumbent, and the
    seed and dive are its search's; the dual bound is the lowest (an
    infeasible half's is +inf); the gap is HiGHS's |primal - dual| /
    |primal| of that point and bound; the nodes are summed; and an
    infeasible program is ``barred`` when every half is."""
    statuses = [reply.status for reply in answers]
    points = [reply for reply in answers if reply.x is not None]
    bounds = [math.inf if reply.status == "Infeasible" else reply.bound
              for reply in answers]
    bound = None if None in bounds or min(bounds) == math.inf \
        else min(bounds)
    # without a point, no seed and no dive
    best = min(points, key=lambda reply: float(c @ reply.x),
               default=Reply(""))
    primal = None if best.x is None else float(c @ best.x)
    if primal is None or bound is None:
        gap = None
    elif primal == 0.0:
        gap = 0.0 if bound == 0.0 else None
    else:
        gap = abs(primal - bound) / abs(primal)
    if all(status in ("Optimal", "Infeasible") for status in statuses):
        status = "Optimal" if points else "Infeasible"
    elif points:
        status = "Feasible (limit reached)"
    else:
        status = next(s for s in statuses if s not in ("Optimal",
                                                       "Infeasible"))
    nodes = sum(reply.nodes or 0 for reply in answers)
    # the check proved the program infeasible only if it proved every half
    barred = min(reply.barred for reply in answers) \
        if status == "Infeasible" else 0
    return Reply(status, best.x, bound, gap, nodes, best.dive, best.seed,
                 split=True, barred=barred)


def serve() -> None:
    """Answer requests read from stdin until it reaches EOF, one reply
    each.

    A request is the pickled tuple of ``solve_request``'s arguments but
    ``hangup``, and the reply is the pickled ``ilp.Reply`` it returns.  The
    searches run as threads of this process, in parallel, since HiGHS's
    ``run`` releases the interpreter lock.  The owner is the only holder of
    the write end of stdin, so when it is gone, each search sees the hangup
    at its next interrupt check and stops.

    Replies go to a private copy of fd 1, and fd 1 to the null device, so
    that nothing HiGHS prints can corrupt them or reach the owner's
    terminal; tracebacks of failed searches still go to stderr.  SIGINT is
    ignored: the owner kills the worker when one reaches it mid-exchange.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(_silence_fd1(), "wb")
    requests = sys.stdin.buffer
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            break
        reply = solve_request(*request, hangup=requests.fileno())
        try:
            pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:     # the owner is gone
            break
    # a stopped search may still be inside HiGHS, whose exit handlers then
    # abort the process: skip them
    sys.stderr.flush()
    os._exit(0)


def _silence_fd1() -> int:
    """Send fd 1 to the null device and return a copy of what it was.
    HiGHS 1.12 prints ``HighsMipSolverData::transformNewIntegerFeasibleSolution
    tmpSolver.run();`` on fd 1 during some MIP solves, output off or not."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssltl-milp",
        description="Solve an LP-format mixed-integer program (HiGHS via "
                    "scipy) and write a name/value solution file.")
    parser.add_argument("lp")
    parser.add_argument("sol")
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--mip-rel-gap", type=float, default=None)
    args = parser.parse_args(argv)

    with open(args.lp, "r", encoding="utf-8") as fh:
        prob = parse_lp(fh.read())
    # the external route reads a solver's stdout for status hints, and
    # HiGHS's stray print holds one ("Feasible")
    stdout = _silence_fd1()
    try:
        res, objective = solve_lp_problem(prob, time_limit=args.time_limit,
                                          mip_rel_gap=args.mip_rel_gap)
    finally:
        os.dup2(stdout, 1)
        os.close(stdout)
    write_solution(args.sol, model_status(res, args.time_limit), objective,
                   prob.names, res.x)
    return 0


if __name__ == "__main__":
    sys.exit(main())
