"""The bundled MILP backend: the HiGHS engine behind scipy.optimize.milp,
reached in one of two ways that share one call of ``milp`` (``run_milp``).

* ``serve``: a long-lived worker process.  ``ssltl.ilp`` starts it once per
  process and sends it each program as pickled arrays over its stdin; see
  ``serve`` for the protocol.
* The stand-alone command, which reads a CPLEX-LP-format file and writes a
  plain ``name value`` solution file:
  ``python -m ssltl.milp_shim MODEL.lp OUT.sol [--time-limit S]`` (also
  installed as the ``ssltl-milp`` script).

Supported LP dialect: Maximize/Minimize, named constraints one per line
under Subject To, a Bounds section (``lo <= x <= hi``, ``x <= hi``,
``x >= lo``, ``x = v``, ``x free``), Binary and General sections, End.
This covers the files this package writes plus ordinary hand-written ones.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import re
import signal
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SECTIONS = {
    "maximize": "objective", "minimize": "objective", "max": "objective",
    "min": "objective", "subject": "constraints", "such": "constraints",
    "st": "constraints", "s.t.": "constraints", "bounds": "bounds",
    "bound": "bounds", "binary": "binary", "binaries": "binary",
    "bin": "binary", "general": "general", "generals": "general",
    "gen": "general", "integer": "general", "integers": "general",
    "end": "end",
}


@dataclass
class LpProblem:
    sense: str = "min"
    objective: dict = field(default_factory=dict)
    offset: float = 0.0
    constraints: list = field(default_factory=list)  # (name, terms, sense, rhs)
    bounds: dict = field(default_factory=dict)       # name -> [lo, hi]
    integers: set = field(default_factory=set)
    order: list = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def touch(self, name: str):
        if name not in self._seen:
            self._seen.add(name)
            self.order.append(name)


def _is_number(tok: str) -> bool:
    return bool(_NUM_RE.match(tok))


def _tokenize(expr: str):
    out = expr.replace("+", " + ").replace("-", " - ").split()
    # Re-join scientific-notation splits like ['1e', '-', '05'].
    merged = []
    i = 0
    while i < len(out):
        tok = out[i]
        if (i + 2 < len(out) and tok[-1] in "eE" and _is_number(tok[:-1])
                and out[i + 1] in "+-" and out[i + 2].isdigit()):
            merged.append(tok + out[i + 1] + out[i + 2])
            i += 3
        else:
            merged.append(tok)
            i += 1
    return merged


def _parse_terms(expr: str):
    """Linear expression -> (coefficient dict, constant offset)."""
    coefs: dict = {}
    const = 0.0
    sign = 1.0
    pending: float | None = None
    for tok in _tokenize(expr):
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


def parse_lp(text: str) -> LpProblem:
    prob = LpProblem()
    section = None
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        head = line.split()[0].lower().rstrip(":")
        if head in _SECTIONS:
            section = _SECTIONS[head]
            if section == "objective":
                prob.sense = "max" if head.startswith("max") else "min"
            if section == "end":
                break
            # 'Subject To' style lines carry no payload of their own
            continue
        if section == "objective":
            expr = line.partition(":")[2] if ":" in line else line
            coefs, const = _parse_terms(expr)
            for n, c in coefs.items():
                prob.objective[n] = prob.objective.get(n, 0.0) + c
                prob.touch(n)
            prob.offset += const
        elif section == "constraints":
            name, _, rest = line.partition(":")
            if not rest:
                raise ValueError(f"constraint without name: {line!r}")
            m = re.search(r"(<=|>=|=|<|>)", rest)
            if not m:
                raise ValueError(f"constraint without relation: {line!r}")
            sense = m.group(1)
            if sense == "<":
                sense = "<="
            elif sense == ">":
                sense = ">="
            lhs, rhs_text = rest[:m.start()], rest[m.end():]
            coefs, const = _parse_terms(lhs)
            rhs_coefs, rhs_const = _parse_terms(rhs_text)
            if rhs_coefs:
                raise ValueError(f"variables on constraint rhs: {line!r}")
            for n in coefs:
                prob.touch(n)
            prob.constraints.append(
                (name.strip(), coefs, sense, rhs_const - const))
        elif section == "bounds":
            if line.lower().endswith(" free"):
                name = line.split()[0]
                prob.touch(name)
                prob.bounds[name] = [-np.inf, np.inf]
                continue
            parts = re.split(r"(<=|>=|=)", line)
            parts = [p.strip() for p in parts if p.strip()]
            if len(parts) == 5 and parts[1] == "<=" and parts[3] == "<=":
                lo, name, hi = float(parts[0]), parts[2], float(parts[4])
                prob.bounds[name] = [lo, hi]
            elif len(parts) == 3 and _is_number(parts[2]):
                name, rel, val = parts[0], parts[1], float(parts[2])
                b = prob.bounds.setdefault(name, [0.0, np.inf])
                if rel == "<=":
                    b[1] = val
                elif rel == ">=":
                    b[0] = val
                else:
                    b[0] = b[1] = val
            elif len(parts) == 3 and _is_number(parts[0]):
                lo, rel, name = float(parts[0]), parts[1], parts[2]
                b = prob.bounds.setdefault(name, [0.0, np.inf])
                if rel == "<=":
                    b[0] = lo
                else:
                    b[1] = lo
            else:
                raise ValueError(f"cannot parse bounds line: {line!r}")
            prob.touch(parts[2] if _is_number(parts[0]) else parts[0])
        elif section == "general" or section == "binary":
            for name in line.split():
                prob.touch(name)
                prob.integers.add(name)
                if section == "binary" and name not in prob.bounds:
                    prob.bounds[name] = [0.0, 1.0]
    return prob


def run_milp(c, a_rows, a_cols, a_vals, row_lb, row_ub, lb, ub, integrality,
             time_limit=None, mip_rel_gap=None):
    """Minimize ``c @ x`` subject to ``row_lb <= A x <= row_ub`` and
    ``lb <= x <= ub``, with ``A`` given as COO triplets and the columns whose
    ``integrality`` is 1 integer.  Returns scipy's OptimizeResult."""
    constraints = []
    if len(row_lb):
        a = sparse.csc_array((a_vals, (a_rows, a_cols)),
                             shape=(len(row_lb), len(c)))
        constraints = [LinearConstraint(a, row_lb, row_ub)]
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap
    return milp(c=c, constraints=constraints, integrality=integrality,
                bounds=Bounds(lb, ub), options=options)


def solve_lp_problem(prob: LpProblem, time_limit=None, mip_rel_gap=None):
    n = len(prob.order)
    idx = {name: i for i, name in enumerate(prob.order)}
    c = np.zeros(n)
    for name, coef in prob.objective.items():
        c[idx[name]] = coef
    if prob.sense == "max":
        c = -c

    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for name, (lo, hi) in prob.bounds.items():
        lb[idx[name]] = lo
        ub[idx[name]] = hi
    integrality = np.zeros(n)
    for name in prob.integers:
        integrality[idx[name]] = 1

    rows, cols, vals = [], [], []
    c_lb = np.full(len(prob.constraints), -np.inf)
    c_ub = np.full(len(prob.constraints), np.inf)
    for r, (_, coefs, sense, rhs) in enumerate(prob.constraints):
        for name, coef in coefs.items():
            rows.append(r)
            cols.append(idx[name])
            vals.append(coef)
        if sense in ("<=", "="):
            c_ub[r] = rhs
        if sense in (">=", "="):
            c_lb[r] = rhs
    res = run_milp(c, np.array(rows, dtype=np.int64),
                   np.array(cols, dtype=np.int64),
                   np.array(vals, dtype=np.float64), c_lb, c_ub, lb, ub,
                   integrality, time_limit=time_limit,
                   mip_rel_gap=mip_rel_gap)
    return res, idx


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


def _finite(value):
    return float(value) if value is not None and math.isfinite(value) else None


def serve() -> None:
    """Solve programs read from stdin until it reaches EOF.

    A request is the pickled tuple ``(c, a_rows, a_cols, a_vals, row_lb,
    row_ub, lb, ub, integrality, time_limit)``, the arguments of
    ``run_milp``.  The reply is the pickled tuple ``(status, x, dual_bound,
    gap, nodes)``: ``status`` is the ``model_status`` text, ``x`` the point
    or None, and the last three HiGHS's MIP statistics or None.  Replies go
    to a private copy of fd 1, and fd 1 itself is pointed at the null
    device, so that nothing HiGHS prints can corrupt the reply stream or
    reach the owner's terminal; tracebacks of failed requests still go to
    stderr.  SIGINT is ignored: the owner kills the worker when an interrupt
    reaches it mid-exchange.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    requests = sys.stdin.buffer
    while True:
        try:
            *program, time_limit = pickle.load(requests)
        except EOFError:
            return
        try:
            res = run_milp(*program, time_limit=time_limit)
            reply = (model_status(res, time_limit), res.x,
                     _finite(getattr(res, "mip_dual_bound", None)),
                     _finite(getattr(res, "mip_gap", None)),
                     getattr(res, "mip_node_count", None))
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
    res, _ = solve_lp_problem(prob, time_limit=args.time_limit,
                              mip_rel_gap=args.mip_rel_gap)
    objective = None if res.x is None else float(np.dot(
        [prob.objective.get(n, 0.0) for n in prob.order], res.x)) + prob.offset
    write_solution(args.sol, model_status(res, args.time_limit), objective,
                   prob.order, res.x)
    return 0


if __name__ == "__main__":
    sys.exit(main())
