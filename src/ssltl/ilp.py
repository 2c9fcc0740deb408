"""Mixed-integer program over the product MDP: occupation measures, policy
binaries, reachability flows, and the accepting-component indicator system;
LP-file export, solver driving, and policy extraction.

The program is indexed by integers: terms and solution values refer to a
column by its position in ``IlpModel.variables`` (see ``Columns``), and
variable names exist only in LP text.  With no external solver configured,
the program goes as arrays (``highs_arrays``) to the bundled backend: one
long-lived HiGHS worker process per caller (``milp_shim.serve``), started on
the first solve and fed every later one, so that no round pays for an
interpreter start, LP text or a solution file.  An external solver gets the
program in CPLEX LP format through its command template (``{lp}`` and
``{sol}`` placeholders), and solution files in either a generic ``name
value`` layout or the index-prefixed column layout written by CBC are mapped
back to columns.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ssltl.errors import ModelError, NoAcceptingStructureError, PolicyError, \
    SolverError
from ssltl.model import SsLtlSpec, labeled_subset
from ssltl.product import Policy, ProductLmdp

POLICY_IDENTITY_TOL = 1e-6
MASS_FLOOR = 1e-8
INTEGRALITY_WARN_BAND = 1e-6


@dataclass(frozen=True)
class IlpConfig:
    """Program knobs.

    ``epsilon`` is the strict-decrease increment of the flow constraints; the
    default shrinks with the product size because the unit of flow injected at
    the initial state must cover one epsilon per flagged state, so a fixed
    epsilon would artificially forbid long reachable chains.  ``acc_eps``
    relaxes the strict positivity of the acceptance-mass constraint, which is
    not expressible in a MILP.
    """

    epsilon: Optional[float] = None
    acc_eps: float = 1e-4
    flow_ratio: float = 2.0
    objective: str = "expected_reward"

    def __post_init__(self):
        if self.epsilon is not None and not (math.isfinite(self.epsilon)
                                             and self.epsilon > 0):
            raise ModelError(f"epsilon must be a positive finite number, "
                             f"not {self.epsilon!r}")
        if not (math.isfinite(self.acc_eps) and self.acc_eps > 0):
            raise ModelError(f"acc_eps must be a positive finite number, "
                             f"not {self.acc_eps!r}")
        if not (math.isfinite(self.flow_ratio) and self.flow_ratio >= 1):
            raise ModelError(f"flow_ratio must be a finite number >= 1, "
                             f"not {self.flow_ratio!r}")
        if self.objective not in ("expected_reward", "feasibility"):
            raise ModelError(f"unknown objective {self.objective!r}")

    def resolve_epsilon(self, n_product_states: int) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return min(1e-4, 1.0 / (4.0 * max(1, n_product_states)))


@dataclass(frozen=True)
class IlpVar:
    lb: float
    ub: float
    binary: bool


@dataclass(frozen=True)
class IlpRow:
    name: str
    terms: tuple          # ((coef, column), ...)
    sense: str            # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    variables: tuple      # IlpVar per column
    objective: tuple      # ((coef, column), ...)
    rows: tuple
    product: ProductLmdp
    amecs: tuple
    spec: SsLtlSpec
    cfg: IlpConfig
    epsilon: float


_CONTINUOUS = IlpVar(0.0, 1.0, False)
_BINARY = IlpVar(0.0, 1.0, True)
# The terms of a row that has none: an explicit zero on column 0, so that the
# row still names a column in LP text.
_ANCHOR = ((0.0, 0),)


class Columns:
    """Column offsets of the program's variable blocks, in this order: x per
    pair of the product (x of pair k is column k), f per product edge, pi per
    pair, isq per product state, is per model state, ik per accepting
    component, iks per (component, model state).  Every column from ``pi0``
    on is binary."""

    def __init__(self, p: ProductLmdp, n_amecs: int = 0):
        n_states = len(p.model.states)
        self.f0 = len(p.succ)
        self.pi0 = self.f0 + len(p.edges)
        self.isq0 = self.pi0 + len(p.succ)
        self.is0 = self.isq0 + len(p.states)
        self.ik0 = self.is0 + n_states
        self.iks0 = self.ik0 + n_amecs
        self.end = self.iks0 + n_amecs * n_states


def build_program(p: ProductLmdp, amecs, spec: SsLtlSpec,
                  cfg: Optional[IlpConfig] = None) -> IlpModel:
    """Assemble the full variable/constraint system.

    Raises NoAcceptingStructureError when the accepting-MEC list is empty
    (no accepting behavior exists).
    """
    cfg = cfg or IlpConfig()
    amecs = tuple(amecs)
    if not amecs:
        raise NoAcceptingStructureError(
            "product has no accepting maximal end component")

    m = p.model
    d = p.dra
    cols = Columns(p, len(amecs))
    n = len(p.states)
    n_pairs = cols.f0
    eps = cfg.resolve_epsilon(n)

    in_edges = [[] for _ in range(n)]
    out_edges = [[] for _ in range(n)]
    for e, (i, j) in enumerate(p.edges):
        out_edges[i].append(cols.f0 + e)
        in_edges[j].append(cols.f0 + e)

    variables = ((_CONTINUOUS,) * cols.pi0
                 + (_BINARY,) * (cols.end - cols.pi0))

    objective = []
    if cfg.objective == "expected_reward":
        for i, (s, _) in enumerate(p.states):
            for k, a in zip(p.pairs(i), p.actions(i)):
                coef = sum(prob * m.reward_value(s, a, s2)
                           for s2, prob in m.trans[(s, a)].items())
                if coef != 0.0:
                    objective.append((coef, k))

    rows = []

    # (i) occupation balance: inflow of measure equals outflow, per state.
    inflow = [{} for _ in range(n)]
    for k, row in enumerate(p.succ):
        for j, prob in row.items():
            acc = inflow[j]
            acc[k] = acc.get(k, 0.0) + prob
    for j, acc in enumerate(inflow):
        for k in p.pairs(j):
            acc[k] = acc.get(k, 0.0) - 1.0
        terms = tuple((c, k) for k, c in acc.items() if c != 0.0)
        rows.append(IlpRow(f"c_i_{j}", terms, "=", 0.0))

    # (ii) normalization
    rows.append(IlpRow("c_ii_0", tuple((1.0, k) for k in range(n_pairs)),
                       "=", 1.0))

    # (iii) positive measure forces the action: x <= pi
    for k in range(n_pairs):
        rows.append(IlpRow(f"c_iii_{k}", ((1.0, k), (-1.0, cols.pi0 + k)),
                           "<=", 0.0))

    # (iv) the policy is a point distribution per product state
    for i in range(n):
        rows.append(IlpRow(f"c_iv_{i}",
                           tuple((1.0, cols.pi0 + k) for k in p.pairs(i)),
                           "=", 1.0))

    # (v) flow capacity: f_e <= sum_a T(e|a) pi_a
    for e, (i, j) in enumerate(p.edges):
        terms = [(1.0, cols.f0 + e)]
        for k in p.pairs(i):
            prob = p.succ[k].get(j, 0.0)
            if prob:
                terms.append((-prob, cols.pi0 + k))
        rows.append(IlpRow(f"c_v_{e}", tuple(terms), "<=", 0.0))

    # (vi) strict decrease: inflow >= outflow + eps * isq, all but the root
    j = 0
    for i in range(n):
        if i == p.initial:
            continue
        terms = [(1.0, f) for f in in_edges[i]]
        terms += [(-1.0, f) for f in out_edges[i]]
        terms.append((-eps, cols.isq0 + i))
        rows.append(IlpRow(f"c_vi_{j}", _merge(terms), ">=", 0.0))
        j += 1

    # (vii) incoming flow forces the visit flag
    for i in range(n):
        terms = [(1.0, f) for f in in_edges[i]]
        terms.append((-1.0, cols.isq0 + i))
        rows.append(IlpRow(f"c_vii_{i}", _merge(terms), "<=", 0.0))

    # (viii) outgoing >= incoming / flow_ratio
    inv = 1.0 / cfg.flow_ratio
    for i in range(n):
        terms = [(1.0, f) for f in out_edges[i]]
        terms += [(-inv, f) for f in in_edges[i]]
        rows.append(IlpRow(f"c_viii_{i}", _merge(terms), ">=", 0.0))

    # (ix) no measure on unflagged states
    for i in range(n):
        terms = [(1.0, k) for k in p.pairs(i)]
        terms.append((-1.0, cols.isq0 + i))
        rows.append(IlpRow(f"c_ix_{i}", tuple(terms), "<=", 0.0))

    # (x) steady-state intervals, one lower and one upper row per operator
    j = 0
    for interval in spec.ss:
        member = labeled_subset(m, interval.formula)
        terms = tuple((1.0, k) for i, (s, _) in enumerate(p.states)
                      if s in member for k in p.pairs(i))
        if not terms:
            # no product copy of any member state: pin an explicit zero
            terms = _ANCHOR
        rows.append(IlpRow(f"c_x_{j}", terms, ">=", interval.lower))
        rows.append(IlpRow(f"c_x_{j + 1}", terms, "<=", interval.upper))
        j += 2

    # (xi) accepting mass: strict positivity relaxed to >= acc_eps
    inf_union = d.inf_union()
    terms = tuple((1.0, k) for i, (_, q) in enumerate(p.states)
                  if q in inf_union for k in p.pairs(i))
    rows.append(IlpRow("c_xi_0", terms or _ANCHOR, ">=", cfg.acc_eps))

    # (xii) component carries measure -> component flag
    for c, amec in enumerate(amecs):
        terms = [(1.0, k) for i in sorted(amec.mec.states)
                 for k in p.pairs(i)]
        terms.append((-1.0, cols.ik0 + c))
        rows.append(IlpRow(f"c_xii_{c}", tuple(terms), "<=", 0.0))

    # (xiii)/(xiv) per-state component membership flags; iks of component c
    # and model state t is column iks0 + c * |S| + t
    n_s = len(m.states)
    copies = []
    for amec in amecs:
        by_state: dict = {}
        for i in sorted(amec.mec.states):
            by_state.setdefault(p.states[i][0], []).append(cols.isq0 + i)
        copies.append(by_state)
    j = 0
    for c in range(len(amecs)):
        for t, s in enumerate(m.states):
            terms = [(1.0, cols.iks0 + c * n_s + t)]
            terms += [(-1.0, col) for col in copies[c].get(s, ())]
            rows.append(IlpRow(f"c_xiii_{j}", tuple(terms), "<=", 0.0))
            j += 1
    j = 0
    n_nodes = len(d.nodes)
    for c in range(len(amecs)):
        for t, s in enumerate(m.states):
            terms = [(1.0 / n_nodes, col) for col in copies[c].get(s, ())]
            terms.append((-1.0, cols.iks0 + c * n_s + t))
            rows.append(IlpRow(f"c_xiv_{j}", tuple(terms), "<=", 0.0))
            j += 1

    # (xv) shared-state coupling: is - 1 <= sum_k (iks - ik) / |AMEC|
    inv_k = 1.0 / len(amecs)
    for t in range(n_s):
        terms = [(1.0, cols.is0 + t)]
        for c in range(len(amecs)):
            terms.append((-inv_k, cols.iks0 + c * n_s + t))
            terms.append((inv_k, cols.ik0 + c))
        rows.append(IlpRow(f"c_xv_{t}", tuple(terms), "<=", 1.0))

    # (xvi) some shared state exists
    rows.append(IlpRow("c_xvi_0",
                       tuple((1.0, cols.is0 + t) for t in range(n_s)),
                       ">=", 1.0))

    return IlpModel(variables=variables, objective=tuple(objective),
                    rows=tuple(rows), product=p, amecs=amecs, spec=spec,
                    cfg=cfg, epsilon=eps)


def _merge(terms):
    acc: dict = {}
    order = []
    for coef, j in terms:
        if j not in acc:
            acc[j] = 0.0
            order.append(j)
        acc[j] += coef
    return tuple((acc[j], j) for j in order if acc[j] != 0.0)


# ---------------------------------------------------------------------------
# LP-file export
# ---------------------------------------------------------------------------

def column_names(model: IlpModel) -> list:
    """LP names of the columns.  Indices in a name are positions in the
    model's state and action orderings and the automaton's node ordering."""
    p = model.product
    m = p.model
    s_pos = {s: i for i, s in enumerate(m.states)}
    q_pos = {q: i for i, q in enumerate(p.dra.nodes)}
    a_pos = {a: i for i, a in enumerate(m.actions)}
    sq_id = [f"{s_pos[s]}_{q_pos[q]}" for s, q in p.states]
    pairs = [f"{sq_id[i]}_{a_pos[a]}"
             for i in range(len(p.states)) for a in p.actions(i)]
    n_amecs = len(model.amecs)
    return ([f"x_{t}" for t in pairs]
            + [f"f_{sq_id[i]}_{sq_id[j]}" for i, j in p.edges]
            + [f"pi_{t}" for t in pairs]
            + [f"isq_{t}" for t in sq_id]
            + [f"is_{i}" for i in range(len(m.states))]
            + [f"ik_{k}" for k in range(n_amecs)]
            + [f"iks_{k}_{i}" for k in range(n_amecs)
               for i in range(len(m.states))])


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _expr(terms, names) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (coef, j) in enumerate(terms):
        mag = _num(abs(coef))
        if i == 0:
            parts.append(f"-{mag} {names[j]}" if coef < 0
                         else f"{mag} {names[j]}")
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {mag} {names[j]}")
    return " ".join(parts)


def export_lp(model: IlpModel) -> str:
    names = column_names(model)
    out = ["Maximize"]
    out.append(f" obj: {_expr(model.objective, names)}")
    out.append("Subject To")
    for row in model.rows:
        out.append(f" {row.name}: {_expr(row.terms or _ANCHOR, names)} "
                   f"{row.sense} {_num(row.rhs)}")
    out.append("Bounds")
    for j, v in enumerate(model.variables):
        if not v.binary:
            out.append(f" {_num(v.lb)} <= {names[j]} <= {_num(v.ub)}")
    out.append("Binary")
    for j, v in enumerate(model.variables):
        if v.binary:
            out.append(f" {names[j]}")
    out.append("End")
    return "\n".join(out) + "\n"


def write_lp(model: IlpModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(export_lp(model))


def highs_arrays(model: IlpModel) -> tuple:
    """The program as the bundled backend hands it to HiGHS: ``(c, a_rows,
    a_cols, a_vals, row_lb, row_ub, lb, ub, integrality)``, the arguments of
    ``milp_shim.run_milp`` (``c`` negated, since HiGHS minimizes), and
    ``order``, the model column of each HiGHS column.

    Columns go in the order in which ``export_lp`` text first mentions them
    (objective, rows, Bounds, Binary) and rows in model order, so that HiGHS
    gets exactly the arrays ``milp_shim`` builds from that text: HiGHS time
    moves severalfold with column order."""
    n = len(model.variables)
    a_rows, a_cols, a_vals = [], [], []
    row_lb = np.full(len(model.rows), -np.inf)
    row_ub = np.full(len(model.rows), np.inf)
    for r, row in enumerate(model.rows):
        for coef, j in row.terms or _ANCHOR:
            a_rows.append(r)
            a_cols.append(j)
            a_vals.append(coef)
        if row.sense in ("<=", "="):
            row_ub[r] = row.rhs
        if row.sense in (">=", "="):
            row_lb[r] = row.rhs
    binary = np.array([v.binary for v in model.variables], dtype=bool)
    mentions = np.concatenate([
        np.array([j for _, j in model.objective], dtype=np.int64),
        np.array(a_cols, dtype=np.int64),
        np.flatnonzero(~binary), np.flatnonzero(binary)])
    _, first = np.unique(mentions, return_index=True)
    order = np.argsort(first)       # every column is mentioned at least once
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)

    c = np.zeros(n)
    for coef, j in model.objective:
        c[pos[j]] = coef
    lb = np.array([model.variables[j].lb for j in order], dtype=np.float64)
    ub = np.array([model.variables[j].ub for j in order], dtype=np.float64)
    program = (-c, np.array(a_rows, dtype=np.int64), pos[a_cols],
               np.array(a_vals, dtype=np.float64), row_lb, row_ub, lb, ub,
               binary[order].astype(np.float64))
    return program, order


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

BUNDLED_TIME_LIMIT = 60.0           # seconds inside the bundled backend


@dataclass(frozen=True)
class SolverConfig:
    """``command``: an external solver's template with {lp} and {sol}
    placeholders; None selects the configured one, else the bundled backend.
    ``timeout``: seconds; the bundled backend's in-solver time limit (default
    BUNDLED_TIME_LIMIT), or when an external command is killed."""

    command: Optional[str] = None
    timeout: Optional[float] = None


def _external_command() -> Optional[str]:
    """The external solver in use when no command is given: the
    SSLTL_SOLVER_CMD environment variable, then a ``highs`` or ``cbc`` binary
    on PATH.  None selects the bundled backend."""
    env = os.environ.get("SSLTL_SOLVER_CMD")
    if env:
        return env
    if shutil.which("highs"):
        return "highs --solution_file {sol} {lp}"
    if shutil.which("cbc"):
        return "cbc {lp} solve printingOptions all solution {sol}"
    return None


def default_solver_command(
        solve_time_limit: float = BUNDLED_TIME_LIMIT) -> str:
    """Resolve the solver template: the SSLTL_SOLVER_CMD environment variable
    wins, then a ``highs`` or ``cbc`` binary on PATH, then the bundled
    backend's LP-file command, with the in-solver time budget ``solve`` gives
    the bundled worker (so that plateau instances return their incumbent
    instead of hanging)."""
    return _external_command() or (
        f"{sys.executable} -m ssltl.milp_shim {{lp}} {{sol}} "
        f"--time-limit {solve_time_limit:g}")


@dataclass(frozen=True)
class Solution:
    """A solver's answer.  ``bound`` (the proven upper bound on the
    objective), ``gap`` and ``nodes`` come from the bundled backend; they are
    None when read from a solution file."""

    status: str          # optimal | feasible | infeasible | timeout | error
    values: Optional[np.ndarray]     # one value per column; None: no point
    objective: Optional[float]
    solver_output: str = ""
    bound: Optional[float] = None
    gap: Optional[float] = None
    nodes: Optional[int] = None


def parse_solution_text(text: str, varnames) -> tuple:
    """Extract variable assignments from either ``name value`` lines or the
    CBC index-prefixed column layout; returns (values, status_hint)."""
    varnames = set(varnames)
    values: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.replace("**", " ").split()
        if len(tokens) >= 2 and tokens[0] in varnames:
            try:
                values[tokens[0]] = float(tokens[1])
                continue
            except ValueError:
                pass
        if len(tokens) >= 3 and tokens[1] in varnames:
            try:
                int(tokens[0])
                values[tokens[1]] = float(tokens[2])
                continue
            except ValueError:
                pass
    low = text.lower()
    if "infeasible" in low:
        hint = "infeasible"
    elif "unbounded" in low:
        hint = "error"
    elif "optimal" in low:
        hint = "optimal"
    elif "feasible" in low or "stopped" in low or "time limit" in low:
        hint = "feasible"
    else:
        hint = ""
    return values, hint


def solve(model: IlpModel, solver: Optional[SolverConfig] = None,
          keep_files: Optional[str] = None, round_no: int = 1) -> Solution:
    """Solve the program with the configured external command, else with the
    bundled backend's worker process.

    ``keep_files`` names a directory that keeps ``round_<round_no>.lp`` and
    ``round_<round_no>.sol``; otherwise the external route uses a fresh
    temporary directory and removes it, and the bundled one writes no file.
    """
    solver = solver or SolverConfig()
    command = solver.command or _external_command()
    if command is None:
        limit = (BUNDLED_TIME_LIMIT if solver.timeout is None
                 else solver.timeout)
        return _solve_bundled(model, limit, keep_files, round_no)

    tmpdir = None
    if keep_files is None:
        tmpdir = tempfile.mkdtemp(prefix="ssltl_")
        stem = os.path.join(tmpdir, "model")
    else:
        stem = _keep_stem(keep_files, round_no)
    lp_path, sol_path = stem + ".lp", stem + ".sol"
    write_lp(model, lp_path)

    cmd = command.format(lp=lp_path, sol=sol_path)
    try:
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True,
                                  text=True, timeout=solver.timeout)
        except FileNotFoundError as exc:
            raise SolverError(f"cannot launch solver: {cmd!r}: {exc}") from exc
        except subprocess.TimeoutExpired:
            return Solution(status="timeout", values=None, objective=None,
                            solver_output=f"killed after {solver.timeout:g} "
                                          f"s: {cmd!r}")

        output = (proc.stdout or "") + "\n" + (proc.stderr or "")
        sol_text = ""
        if os.path.exists(sol_path):
            with open(sol_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                sol_text = fh.read()
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)

    names = column_names(model)
    by_name, hint = parse_solution_text(sol_text, names)
    if not hint:
        _, hint = parse_solution_text(output, names)

    if hint == "infeasible":
        return Solution(status="infeasible", values=None, objective=None,
                        solver_output=output)
    if not by_name:
        if hint == "feasible":      # stopped at a limit before any solution
            return Solution(status="timeout", values=None, objective=None,
                            solver_output=(sol_text + output).strip())
        if proc.returncode != 0:
            raise SolverError(
                f"solver failed (exit {proc.returncode}) and wrote no "
                f"solution: {output[-2000:]}")
        raise SolverError(f"unparseable solver output: {sol_text[-2000:]!r}")

    values = np.array([by_name.get(name, 0.0) for name in names])
    objective = sum(coef * values[j] for coef, j in model.objective)
    return Solution(status=hint or "feasible", values=values,
                    objective=float(objective), solver_output=output)


def _keep_stem(keep_files: str, round_no: int) -> str:
    os.makedirs(keep_files, exist_ok=True)
    return os.path.join(keep_files, f"round_{round_no}")


def _solve_bundled(model: IlpModel, time_limit: float,
                   keep_files: Optional[str], round_no: int) -> Solution:
    """One exchange with the worker; under ``keep_files`` the program is also
    written as LP text and the reply as a ``name value`` solution file."""
    program, order = highs_arrays(model)
    if keep_files is not None:
        stem = _keep_stem(keep_files, round_no)
        write_lp(model, stem + ".lp")
    status, x, dual_bound, gap, nodes = _ask_worker(program + (time_limit,))
    output = f"Model status: {status}"
    sol = None
    if status == "Infeasible":
        sol = Solution(status="infeasible", values=None, objective=None,
                       solver_output=output)
    elif x is None and status.startswith("Time limit reached"):
        sol = Solution(status="timeout", values=None, objective=None,
                       solver_output=output)
    elif x is not None:
        values = np.empty(len(order))
        values[order] = x
        objective = sum(coef * values[j] for coef, j in model.objective)
        sol = Solution(
            status={"Optimal": "optimal", "Unbounded": "error"}.get(
                status, "feasible"),
            values=values, objective=float(objective), solver_output=output,
            # 0.0 - b, not -b: a zero bound must not read -0.0
            bound=None if dual_bound is None else 0.0 - dual_bound,
            gap=gap, nodes=nodes)
    if keep_files is not None:
        _write_kept_solution(stem + ".sol", model, order, output, sol)
    if sol is None:
        raise SolverError(f"the bundled HiGHS backend returned no solution: "
                          f"{output}")
    return sol


def _write_kept_solution(path, model: IlpModel, order, output: str,
                         sol: Optional[Solution]) -> None:
    """``sol`` in the layout ``milp_shim.write_solution`` uses, columns in
    HiGHS order."""
    lines = [output]
    if sol is not None and sol.values is not None:
        names = column_names(model)
        lines.append(f"Objective {sol.objective!r}")
        lines.append(f"# Columns {len(order)}")
        lines += [f"{names[j]} {float(sol.values[j])!r}" for j in order]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# The bundled backend's worker process
# ---------------------------------------------------------------------------

_WORKER_ARGS = (sys.executable, "-c",
                "from ssltl.milp_shim import serve; serve()")
_worker_lock = threading.Lock()
_worker: Optional[tuple] = None         # (owner pid, Popen)


def _ask_worker(request: tuple) -> tuple:
    """Send one request to this process's worker and return its reply (see
    ``milp_shim.serve``).  If anything interrupts the exchange the worker is
    killed and dropped, so that a later exchange never reads a stale reply."""
    global _worker
    with _worker_lock:
        proc = _live_worker()
        try:
            pickle.dump(request, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            proc.stdin.flush()
            return _receive(proc)
        except BaseException as exc:
            _worker = None
            died = isinstance(exc, (EOFError, BrokenPipeError))
            _stop(proc, grace=5.0 if died else 0.0)
            if died:
                raise SolverError(
                    f"the bundled solver worker exited (code "
                    f"{proc.returncode}) without a reply") from exc
            raise


def _receive(proc: subprocess.Popen) -> tuple:
    return pickle.load(proc.stdout)


def _live_worker() -> subprocess.Popen:
    """This process's worker, started if there is none or it has died.  A
    worker inherited through fork serves the parent: the child drops its
    copies of the pipes and starts its own."""
    global _worker
    if _worker is not None:
        owner, proc = _worker
        if owner != os.getpid():
            _close_pipes(proc)
            _worker = None
        elif proc.poll() is not None:
            _stop(proc)
            _worker = None
    if _worker is None:
        # the worker imports this very package, wherever it was found
        path = [os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.Popen(_WORKER_ARGS, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, env=env)
        _worker = (os.getpid(), proc)
    return _worker[1]


def _close_pipes(proc: subprocess.Popen) -> None:
    for pipe in (proc.stdin, proc.stdout):
        with contextlib.suppress(OSError):
            pipe.close()


def _stop(proc: subprocess.Popen, grace: float = 0.0) -> None:
    """Close the worker's pipes (an idle worker then exits by itself) and
    reap it, killing it after ``grace`` seconds."""
    _close_pipes(proc)
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@atexit.register
def _stop_worker_at_exit() -> None:
    if _worker is not None and _worker[0] == os.getpid():
        _stop(_worker[1], grace=1.0)


# ---------------------------------------------------------------------------
# Policy extraction
# ---------------------------------------------------------------------------

def extract_policy(sol: Solution, p: ProductLmdp) -> Policy:
    """Read the policy binaries: the unique action with value > 0.5 at every
    reachable product state.  Where the occupation mass exceeds MASS_FLOOR the
    stationary-policy identity |x - pi * sum_a x| <= 1e-6 is asserted."""
    if sol.status not in ("optimal", "feasible"):
        raise PolicyError(f"cannot extract a policy from status {sol.status!r}")
    pi0 = Columns(p).pi0
    values = sol.values
    choice = {}
    for i, sq in enumerate(p.states):
        acts = p.actions(i)
        pis = [values[pi0 + k] for k in p.pairs(i)]
        winners = [r for r, v in enumerate(pis) if v > 0.5]
        if len(winners) != 1:
            raise PolicyError(
                f"no unique policy binary above 0.5 at {sq!r} "
                f"(values {[float(v) for v in pis]})")
        best = winners[0]
        slack = 1.0 - pis[best]
        if slack > INTEGRALITY_WARN_BAND:
            warnings.warn(
                f"integrality slack {slack:g} on the policy binary of "
                f"{acts[best]!r} at {sq!r}", stacklevel=2)
        choice[sq] = acts[best]

        xs = [values[k] for k in p.pairs(i)]
        total = sum(xs)
        if total >= MASS_FLOOR:
            for r, x in enumerate(xs):
                indicator = 1.0 if r == best else 0.0
                resid = abs(x - indicator * total)
                if resid > POLICY_IDENTITY_TOL:
                    raise PolicyError(
                        f"occupation/policy identity violated at {sq!r}, "
                        f"action {acts[r]!r}: residual {resid:g}")
    return Policy(choice=choice)
