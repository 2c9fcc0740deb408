"""The bundled MILP backend: HiGHS through its own binding in scipy, reached
in one of two ways that share one HiGHS run (``run_milp``).

* ``serve``: a long-lived worker process.  ``ssltl.ilp`` starts one per
  seeded search in each process, sends each program, or its part of a
  split program (the same arrays with other upper bounds), to them as
  pickled arrays over their stdin, and cancels a search through a second
  pipe; see ``serve`` for the protocol.
* The stand-alone command, which reads a CPLEX-LP-format file into the
  package's own program (``parse_lp``), hands HiGHS the arrays
  ``ilp.highs_arrays`` builds from it, and writes a plain ``name value``
  solution file:
  ``python -m ssltl.milp_shim MODEL.lp OUT.sol [--time-limit S]`` (also
  installed as the ``ssltl-milp`` script).

Supported LP dialect: Maximize/Minimize, named constraints one per line
under Subject To, a Bounds section (``lo <= x <= hi``, ``x <= hi``,
``x >= lo``, ``x = v``, either side first, ``x free``; a bound may be a
signed ``inf`` or ``infinity``), Binary and General sections (a Binary
column still at the default bounds [0, inf) gets [0, 1]), End.  This
covers the files this package writes plus ordinary hand-written ones.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import re
import select
import signal
import sys
import traceback
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult
# HiGHS's own binding, which scipy's ``milp`` wraps (scipy 1.15 on)
from scipy.optimize._highspy import _core as highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

if TYPE_CHECKING:
    from ssltl.ilp import IlpModel

_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# a sign, a number (2.5e-05 is one token) or a name
_TOKEN_RE = re.compile(r"[+-]|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[^\s+-]+")
_SECTIONS = {
    "maximize": "objective", "minimize": "objective", "max": "objective",
    "min": "objective", "subject": "constraints", "such": "constraints",
    "st": "constraints", "s.t.": "constraints", "bounds": "bounds",
    "bound": "bounds", "binary": "binary", "binaries": "binary",
    "bin": "binary", "general": "general", "generals": "general",
    "gen": "general", "integer": "general", "integers": "general",
    "end": "end",
}
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


class LpFile(NamedTuple):
    """An LP file read into the package's program.  ``model`` is an
    ``ilp.IlpModel`` without a product that maximizes ``sign`` times the
    file's objective less its constant: the file's objective is ``sign`` times
    the model's plus ``offset``.  ``names`` holds the column names, the
    columns numbered in the order in which the file first mentions them."""

    model: IlpModel
    names: list
    sign: float
    offset: float


def _is_number(tok: str) -> bool:
    return bool(_NUM_RE.match(tok))


def _is_bound(tok: str) -> bool:
    """A number or a signed infinity: only a Bounds line reads ``inf`` as a
    value, an expression reads it as a column."""
    return _is_number(tok) or tok.lstrip("+-").lower() in ("inf", "infinity")


def _parse_terms(expr: str):
    """Linear expression -> (coefficient dict, constant offset)."""
    coefs: dict = {}
    const = 0.0
    sign = 1.0
    pending: float | None = None
    for tok in _TOKEN_RE.findall(expr):
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        if _is_number(tok):
            val = float(tok)
            if pending is None:
                pending = sign * val
            else:
                pending *= val
            sign = 1.0
            continue
        coef = sign if pending is None else pending
        coefs[tok] = coefs.get(tok, 0.0) + coef
        pending = None
        sign = 1.0
    if pending is not None:
        const += pending
    return coefs, const


def parse_lp(text: str) -> LpFile:
    # here, not at the top: the worker (``serve``) needs no program layer
    from ssltl.ilp import IlpModel, IlpRow, IlpVar

    col: dict = {}              # name -> column
    lb, ub, integer = [], [], []
    objective: dict = {}        # column -> coefficient
    rows, offset, maximize, section = [], 0.0, False, None

    def column(name: str) -> int:
        if name not in col:
            col[name] = len(lb)
            lb.append(0.0)
            ub.append(math.inf)
            integer.append(False)
        return col[name]

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        head = line.split()[0].lower().rstrip(":")
        if head in _SECTIONS:
            section = _SECTIONS[head]
            if section == "objective":
                maximize = head.startswith("max")
            if section == "end":
                break
            # 'Subject To' style lines carry no payload of their own
            continue
        if section == "objective":
            coefs, const = _parse_terms(line.partition(":")[2] if ":" in line
                                        else line)
            for n, c in coefs.items():
                j = column(n)
                objective[j] = objective.get(j, 0.0) + c
            offset += const
        elif section == "constraints":
            name, _, rest = line.partition(":")
            if not rest:
                raise ValueError(f"constraint without name: {line!r}")
            m = re.search(r"(<=|>=|=|<|>)", rest)
            if not m:
                raise ValueError(f"constraint without relation: {line!r}")
            coefs, const = _parse_terms(rest[:m.start()])
            rhs_coefs, rhs_const = _parse_terms(rest[m.end():])
            if rhs_coefs:
                raise ValueError(f"variables on constraint rhs: {line!r}")
            rows.append(IlpRow(name.strip(),
                               tuple((c, column(n)) for n, c in coefs.items()),
                               {"<": "<=", ">": ">="}.get(m[1], m[1]),
                               rhs_const - const))
        elif section == "bounds":
            parts = [t.strip() for t in re.split(r"(<=|>=|=)", line)
                     if t.strip()]
            if len(parts) == 3 and not _is_bound(parts[2]):
                # "lo <= x" is "x >= lo"
                parts = [parts[2], _FLIP[parts[1]], parts[0]]
            if line.lower().endswith(" free"):
                j = column(line.split()[0])
                lb[j], ub[j] = -math.inf, math.inf
            elif len(parts) == 5 and parts[1] == parts[3] == "<=":
                j = column(parts[2])
                lb[j], ub[j] = float(parts[0]), float(parts[4])
            elif len(parts) == 3 and _is_bound(parts[2]):
                j, val = column(parts[0]), float(parts[2])
                if parts[1] != "<=":
                    lb[j] = val
                if parts[1] != ">=":
                    ub[j] = val
            else:
                raise ValueError(f"cannot parse bounds line: {line!r}")
        elif section in ("general", "binary"):
            for name in line.split():
                j = column(name)
                integer[j] = True
                if section == "binary" and (lb[j], ub[j]) == (0.0, math.inf):
                    ub[j] = 1.0
    sign = 1.0 if maximize else -1.0
    model = IlpModel(
        variables=tuple(map(IlpVar, lb, ub, integer)),
        objective=tuple((sign * c, j) for j, c in objective.items()),
        rows=tuple(rows), product=None, amecs=())
    return LpFile(model, list(col), sign, offset)


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
    called at HiGHS's MIP interrupt checks; the solve stops when it is true.

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
    """Solve the program of an LP file with the arrays the bundled worker
    gets (``ilp.highs_arrays``).  Returns scipy's OptimizeResult and
    ``order``, the model column of each HiGHS column."""
    from ssltl.ilp import highs_arrays

    program, order = highs_arrays(prob.model)
    return run_milp(*program, time_limit=time_limit,
                    mip_rel_gap=mip_rel_gap), order


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


def serve(cancels: int) -> None:
    """Solve programs read from stdin until it reaches EOF, and stop a solve
    the owner cancels through the pipe whose read end is fd ``cancels``.

    A request is the pickled tuple ``(exchange, c, a_rows, a_cols, a_vals,
    row_lb, row_ub, lb, ub, integrality, time_limit, random_seed, beside)``:
    the owner's number of the exchange, the arguments of ``run_milp``, and
    whether another search runs beside this one.  The reply is the pickled
    tuple ``(status, x, dual_bound, gap, nodes)``: the ``model_status``
    text, the point or None, and HiGHS's MIP statistics.

    The cancel pipe carries exchange numbers, 8 bytes each.  Only a request
    with ``beside`` set can be cancelled: its solve reads them without
    blocking at each MIP interrupt check, and stops when the newest is that
    of the exchange it solves or a later one; an earlier one is stale.  It
    stops too at EOF: only the owner holds the write end, so it is gone.  A
    stopped solve still replies, and the owner drops that reply.  A lone
    search installs no interrupt callback, which costs about 1 % of a
    branch-and-bound solve; so when its owner dies without running its exit
    handlers, which kill it, it solves on to its end or time limit.

    Replies go to a private copy of fd 1, and fd 1 to the null device, so
    that nothing HiGHS prints can corrupt them or reach the owner's
    terminal; tracebacks of failed requests still go to stderr.  SIGINT is
    ignored: the owner kills the worker when one reaches it mid-exchange.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    poller = select.poll()      # a poll of no wait costs less than a read
    poller.register(cancels, select.POLLIN)
    newest = 0          # the newest exchange cancelled, None once at EOF

    def cancelled(exchange: int) -> bool:
        nonlocal newest
        while newest is not None and poller.poll(0):
            # exchanges count from 1, and EOF reads b"", that is 0
            chunk = os.read(cancels, 4096)
            newest = int.from_bytes(chunk[-8:], "little") or None
        return newest is None or newest >= exchange

    requests = sys.stdin.buffer
    while True:
        try:
            exchange, *program, time_limit, random_seed, beside = \
                pickle.load(requests)
        except EOFError:
            return
        try:
            res = run_milp(*program, time_limit=time_limit,
                           random_seed=random_seed,
                           interrupt=(lambda: cancelled(exchange)) if beside
                           else None)
            reply = (model_status(res, time_limit), res.x,
                     res.mip_dual_bound, res.mip_gap, res.mip_node_count)
        except Exception as exc:  # reported to the owner, not fatal here
            traceback.print_exc()
            reply = (f"Error ({type(exc).__name__}: {exc})", None, None,
                     None, None)
        try:
            pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()
        except BrokenPipeError:     # the owner is gone
            return


def main(argv=None) -> int:
    # here, not at the top: the worker (``serve``) needs no program layer
    from ssltl.ilp import write_solution

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
    res, order = solve_lp_problem(prob, time_limit=args.time_limit,
                                  mip_rel_gap=args.mip_rel_gap)
    coef = {j: c for c, j in prob.model.objective}
    objective = None if res.x is None else prob.sign * float(np.dot(
        [coef.get(j, 0.0) for j in order], res.x)) + prob.offset
    write_solution(args.sol, model_status(res, args.time_limit), objective,
                   [prob.names[j] for j in order], res.x)
    return 0


if __name__ == "__main__":
    sys.exit(main())
