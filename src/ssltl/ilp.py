"""Mixed-integer program over the product MDP: occupation measures, policy
binaries, reachability flows over the product graph (no transition
probability enters them), and the accepting-component indicator system;
LP-file export, solver driving, and policy extraction.

The occupation measure x lives only on the pairs the accepting components
retain: every other x column has bounds [0, 0] (see ``build_program``), so
the columns keep their positions and LP text writes the pins as bounds.

The program is indexed by integers: terms and solution values refer to a
column by its position in ``IlpModel.variables`` (see ``Columns``), and
variable names exist only in LP text.  With no external solver command in
``SolverConfig`` (this module reads no environment variable), the program
goes as a ``Program`` of arrays (``highs_arrays``) to the bundled backend:
one long-lived HiGHS worker process per calling process
(``milp_shim.serve``), started on the first solve and fed every later one,
so that no round pays for an interpreter start, LP text or a solution
file.  It answers each program with a ``Reply``.  The worker runs one search
per CPU the caller may use (two at most, ``_RACER_SEEDS``), each a thread
with its own HiGHS seed.  The searches split a program with objective terms
on the pairs of the initial product state, each searching its own part of
the policies, and combine their answers; any other program goes whole to
each search, the first reply wins and the searches still running are
stopped (``milp_shim.solve_request``).  A lone search solves every program
whole.  Every search of a feasibility program first dives: it solves the
LP relaxation and then the program with every binary the relaxation leaves
at 0 or 1 fixed, and searches the whole program only when that restriction
has no point (``milp_shim.search``).  A search about to branch and bound
on the whole program (a feasibility program after a failed dive, a reward
program or split half at once) first solves the LP relaxation with x kept
at 0 on every absorbing self-loop that no Rabin pair accepts
(``_rejecting_loops``): no verified policy puts mass there, so when that LP
has no point, no policy exists, and the search answers ``Infeasible``.
Where that LP has a point, a search may go on to branch and bound with
those x kept at 0 too (the *barred program*, which still holds every
verified policy's point): of two searches racing over one program, the
last checks and branches on the barred program and the first does
neither; every half of a split checks and branches on its barred half;
a lone search checks and branches on the whole program.  An
external solver gets the program in CPLEX LP format through its command
template (``{lp}`` and ``{sol}`` placeholders), and solution files in
either a generic ``name value`` layout or the index-prefixed column layout
written by CBC are mapped back to columns; ``write_solution`` writes the
``name value`` layout for ``--keep-files`` and ``ssltl-milp``.  Every
solve ends in a ``Solution`` whose status says how; a solver failure is
status ``error``, never an exception.
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
from typing import NamedTuple, Optional

import numpy as np

from ssltl.errors import ModelError, NoAcceptingStructureError, PolicyError
from ssltl.graph import bscc_accepting, pair_accepting_mecs
from ssltl.model import SsLtlSpec, labeled_subset
from ssltl.product import Policy, ProductLmdp

POLICY_IDENTITY_TOL = 1e-6
MASS_FLOOR = 1e-8
INTEGRALITY_WARN_BAND = 1e-6


@dataclass(frozen=True)
class IlpConfig:
    """Program knobs.  ``acc_eps`` relaxes the strict positivity of the
    acceptance-mass constraint, which is not expressible in a MILP; the flow
    rows' increment is worked out from the product (``flow_increment``).
    """

    acc_eps: float = 1e-4
    objective: str = "expected_reward"

    def __post_init__(self):
        if not 0 < self.acc_eps <= 1:      # NaN too
            raise ModelError(f"acc_eps must lie in (0, 1], the range of an "
                             f"accepting mass, not {self.acc_eps!r}")
        if self.objective not in ("expected_reward", "feasibility"):
            raise ModelError(f"unknown objective {self.objective!r}")


def flow_increment(p: ProductLmdp) -> float:
    """The increment eps of rows (vi): min(1e-4, 1 / (4 n)) for the n states
    of ``p``.  Rows (v) give edge (i, j) the capacity of the binaries of i's
    pairs that have it, whatever its probability: no probability enters rows
    (v)-(vii), so a rare edge cannot push eps below the solver's tolerances.

    Rows (v)-(vii) then flag exactly the states R(pi) a deterministic policy
    pi reaches.  No other state can be flagged: let B hold a flagged state u
    and every state from which u is reached along edges of positive flow.
    No flow enters B from outside, so if the root were not in B, rows (vi)
    would make B keep at least eps in all from nothing.  So a path of
    positive flow leads from the root to u, and by (v) each of its edges
    (i, j) has a chosen pair of i with j among its successors: u is in
    R(pi).  This uses neither (vii) nor the value of eps.  All of R(pi) can
    be flagged: send eps from the root along a simple path to each other v
    in R(pi) and let v keep it.  An edge then carries at most (n - 1) eps
    < 1, within its capacity (v), and an inflow stays below 1 (vii), so
    isq = 1 on R(pi) satisfies (v)-(vii).  More flags only relax rows (ix)
    and (xiii), so every solution keeps its (pi, x) in one that flags
    exactly R(pi), for any eps below 1 / (n - 1); the factor 4 n leaves
    slack, and the cap 1e-4 is kept because every change of eps moves the
    solver's search.

    A self-loop (i, i) is not a product edge (``ProductLmdp.edges``) and
    has no f column.  Its f would appear only in its own row (v) and on the
    inflow side of row (vii) of i, both of the <= form with coefficient +1
    on it, since its in and out terms of row (vi) cancel.  So setting it to
    0 keeps every solution feasible with the same (pi, x, isq), and the
    program without it has the same projection onto the other columns.

    The row labels skip (viii), outflow >= inflow / 2, which bounded only f
    and took branch and bound through more nodes, and (xiv) and (xv), which
    encoded rows (xiii) through one auxiliary binary per (component, model
    state); the tests keep both as oracles.  The other rows keep their
    labels, so that row names in LP text stay stable.
    """
    return min(1e-4, 1.0 / (4.0 * len(p.states)))


@dataclass(frozen=True)
class IlpVar:
    lb: float
    ub: float
    binary: bool          # integral: also an LP file's General columns


@dataclass(frozen=True)
class IlpRow:
    name: str
    terms: tuple          # ((coef, column), ...)
    sense: str            # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    variables: tuple      # IlpVar per column; x columns of pairs no
                          # accepting component retains are pinned to 0
    objective: tuple      # ((coef, column), ...)
    rows: tuple
    product: ProductLmdp
    amecs: tuple          # the accepting components (frozensets of product
                          # state indices), one indicator ik each


_CONTINUOUS = IlpVar(0.0, 1.0, False)
_PINNED = IlpVar(0.0, 0.0, False)
_BINARY = IlpVar(0.0, 1.0, True)
# The terms of a row that has none: an explicit zero on column 0, so that the
# row still names a column in LP text.
_ANCHOR = ((0.0, 0),)


class Columns:
    """Column offsets of the program's variable blocks, in this order: x per
    pair of the product (x of pair k is column k, also where it is pinned to
    0), f per product edge, pi per pair, isq per product state, is per model
    state, ik per accepting component.  Every column from ``pi0`` on is
    binary."""

    def __init__(self, p: ProductLmdp, n_amecs: int = 0):
        self.f0 = len(p.succ)
        self.pi0 = self.f0 + len(p.edges)
        self.isq0 = self.pi0 + len(p.succ)
        self.is0 = self.isq0 + len(p.states)
        self.ik0 = self.is0 + len(p.model.states)
        self.end = self.ik0 + n_amecs


def build_program(p: ProductLmdp, amecs, spec: SsLtlSpec,
                  cfg: Optional[IlpConfig] = None) -> IlpModel:
    """Assemble the full variable/constraint system.

    ``amecs`` are the accepting components of ``graph.accepting_mecs``.
    Raises NoAcceptingStructureError when that list is empty: no accepting
    end component exists, so no policy does.

    A component C *retains* pair k of its state i when every successor of k
    lies in C.  The x column of every pair no component retains is pinned
    to 0 (bounds [0, 0]).  That excludes no verified policy pi: set x to
    pi's limiting state-action frequencies from the initial state.  Then x
    is positive only on pi's pairs at the states of its reachable BSCCs.
    Each such BSCC B is Rabin-accepting for some pair j, so B with pi's
    actions is an end component that misses S x Fin_j and meets S x Inf_j.
    B therefore lies in the accepting region, and inside exactly one of its
    MECs C (see ``graph.accepting_mecs``).  pi's pair at each state of B
    keeps all its successors in B, a subset of C, so C retains it.  x
    vanishes on every pinned column, and the solution that
    ``accepting_mecs`` builds for pi survives with the same objective.

    Row (xi) asks for mass >= ``acc_eps`` on the *counted* pairs: pair k of
    state i counts when, for some Rabin pair j, i lies in S x Inf_j and one
    MEC of pair j's accepting region (``graph.pair_accepting_mecs``)
    retains k.  A BSCC inside such a MEC that fails every Rabin pair
    misses S x Inf_j, so x on a rejecting BSCC counts only at states where
    it passes through a MEC of some pair's accepting region without lying
    inside it.  Row (xi) excludes no verified policy pi whose limiting mass
    on counted pairs is at least ``acc_eps``, x being its limiting
    frequencies as above:

    * every BSCC B of pi accepts by some pair j: it misses S x Fin_j and
      meets S x Inf_j, and with pi's actions it is an end component;
    * so B lies in a MEC C of pair j's accepting region, and C retains pi's
      pair at each state of B, since its successors lie in B;
    * B's states in S x Inf_j carry positive limiting mass on those pairs,
      which are counted.

    The strict positivity of that mass is relaxed to >= ``acc_eps`` on the
    counted mass, not on the mass of the union of the Inf sets.  x on pi's
    BSCCs mixes their stationary distributions, so a policy whose BSCCs each
    put less than ``acc_eps`` of their stationary mass on counted pairs
    (among them a BSCC's S x Inf_j states for each pair j accepting it) is
    not found, even when their mass on the union is larger.
    """
    cfg = cfg or IlpConfig()
    amecs = tuple(amecs)
    if not amecs:
        raise NoAcceptingStructureError(
            "product has no accepting end component")

    m = p.model
    cols = Columns(p, len(amecs))
    n = len(p.states)
    n_pairs = cols.f0
    eps = flow_increment(p)

    in_edges = [[] for _ in range(n)]
    out_edges = [[] for _ in range(n)]
    for e, (i, j) in enumerate(p.edges):
        out_edges[i].append(cols.f0 + e)
        in_edges[j].append(cols.f0 + e)

    retained = {k for amec in amecs for i in amec for k in p.pairs(i)
                if amec.issuperset(p.succ[k])}
    variables = (tuple(_CONTINUOUS if k in retained else _PINNED
                       for k in range(n_pairs))
                 + (_CONTINUOUS,) * (cols.pi0 - cols.f0)
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

    # (v) flow capacity: f_e <= sum of pi over the pairs that have edge e
    for e, (i, j) in enumerate(p.edges):
        terms = [(1.0, cols.f0 + e)]
        terms += [(-1.0, cols.pi0 + k) for k in p.pairs(i) if j in p.succ[k]]
        rows.append(IlpRow(f"c_v_{e}", tuple(terms), "<=", 0.0))

    # (vi) strict decrease: inflow >= outflow + eps * isq, all but the root
    j = 0
    for i in range(n):
        if i == p.initial:
            continue
        terms = [(1.0, f) for f in in_edges[i]]
        terms += [(-1.0, f) for f in out_edges[i]]
        terms.append((-eps, cols.isq0 + i))
        rows.append(IlpRow(f"c_vi_{j}", tuple(terms), ">=", 0.0))
        j += 1

    # (vii) incoming flow forces the visit flag.  Without the row the same
    # (pi, x) stay feasible: the argument of ``flow_increment`` never uses
    # it, and the flows it builds satisfy it.  It stays for the search:
    # without it the 8x8 fixture's round-1 program took 2.4 s and 208 nodes
    # under seed 0, not 0.26 s and 1 node.
    for i in range(n):
        terms = [(1.0, f) for f in in_edges[i]]
        terms.append((-1.0, cols.isq0 + i))
        rows.append(IlpRow(f"c_vii_{i}", tuple(terms), "<=", 0.0))

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

    # (xi) accepting mass on the counted pairs: strict positivity relaxed
    # to >= acc_eps
    counted = set()
    for (_, inf), comps in zip(p.dra.pairs, pair_accepting_mecs(amecs, p)):
        for comp in comps:
            counted.update(k for i in comp if p.states[i][1] in inf
                           for k in p.pairs(i) if comp.issuperset(p.succ[k]))
    terms = tuple((1.0, k) for k in sorted(counted))
    rows.append(IlpRow("c_xi_0", terms or _ANCHOR, ">=", cfg.acc_eps))

    # (xii) component carries measure -> component flag
    for c, amec in enumerate(amecs):
        terms = [(1.0, k) for i in sorted(amec)
                 for k in p.pairs(i)]
        terms.append((-1.0, cols.ik0 + c))
        rows.append(IlpRow(f"c_xii_{c}", tuple(terms), "<=", 0.0))

    # (xiii) shared-state coupling: a flagged component holds a flagged copy
    # of every flagged model state; the row of component c and model state t
    # is c_xiii_{c * |S| + t}
    n_s = len(m.states)
    for c, amec in enumerate(amecs):
        copies: dict = {}
        for i in sorted(amec):
            copies.setdefault(p.states[i][0], []).append(cols.isq0 + i)
        for t, s in enumerate(m.states):
            terms = [(1.0, cols.is0 + t), (1.0, cols.ik0 + c)]
            terms += [(-1.0, col) for col in copies.get(s, ())]
            rows.append(IlpRow(f"c_xiii_{c * n_s + t}", tuple(terms), "<=",
                               1.0))

    # (xvi) some shared state exists
    rows.append(IlpRow("c_xvi_0",
                       tuple((1.0, cols.is0 + t) for t in range(n_s)),
                       ">=", 1.0))

    return IlpModel(variables=variables, objective=tuple(objective),
                    rows=tuple(rows), product=p, amecs=amecs)


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
    return ([f"x_{t}" for t in pairs]
            + [f"f_{sq_id[i]}_{sq_id[j]}" for i, j in p.edges]
            + [f"pi_{t}" for t in pairs]
            + [f"isq_{t}" for t in sq_id]
            + [f"is_{i}" for i in range(len(m.states))]
            + [f"ik_{k}" for k in range(len(model.amecs))])


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


class Program(NamedTuple):
    """A program as the bundled backend hands it to HiGHS, in the arguments
    of ``milp_shim.run_milp``: minimize ``c @ x`` subject to ``row_lb <= A x
    <= row_ub`` and ``lb <= x <= ub``, with ``A`` as COO triplets and the
    columns whose ``integrality`` is 1 integer.  It lives here, not in
    ``milp_shim``, as ``Reply`` does, so that the caller builds programs
    and unpickles replies without importing scipy."""

    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray


def highs_arrays(model: IlpModel) -> tuple:
    """The ``Program`` of ``model`` (``c`` negated, since HiGHS minimizes),
    and ``order``, the model column of each HiGHS column.

    Columns go in the order in which ``export_lp`` text first mentions them
    (objective, rows, Bounds, Binary) and rows in model order: HiGHS time
    moves severalfold with column order.  HiGHS's LP reader numbers an LP
    file's columns in that order too, so the stand-alone command
    (``milp_shim.parse_lp``) hands HiGHS the same program for ``export_lp``
    text as the worker gets for the model, which
    ``tests/test_benchmark_programs.py`` pins."""
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
    program = Program(-c, np.array(a_rows, dtype=np.int64), pos[a_cols],
                      np.array(a_vals, dtype=np.float64), row_lb, row_ub, lb,
                      ub, binary[order].astype(np.float64))
    return program, order


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

BUNDLED_TIME_LIMIT = 60.0           # seconds inside the bundled backend


@dataclass(frozen=True)
class SolverConfig:
    """``command``: an external solver's template with {lp} and {sol}
    placeholders, each standing for one argument; None selects the bundled
    backend.  Only the CLI reads a command from the environment, as the
    default of its ``--solver-cmd``; a library caller passes it here.
    ``timeout``: seconds; the bundled backend's in-solver time limit
    (default BUNDLED_TIME_LIMIT), or when an external command is killed."""

    command: Optional[str] = None
    timeout: Optional[float] = None

    def __post_init__(self):
        if self.timeout is not None and not (math.isfinite(self.timeout)
                                             and self.timeout >= 0):
            raise ModelError(f"timeout must be a finite number >= 0, "
                             f"not {self.timeout!r}")


def default_solver_command(
        solve_time_limit: float = BUNDLED_TIME_LIMIT) -> str:
    """The bundled backend's LP-file command, for a caller that needs one,
    with the in-solver time budget ``solve`` gives the bundled worker (so
    that plateau instances return their incumbent instead of hanging)."""
    return (f"{sys.executable} -m ssltl.milp_shim {{lp}} {{sol}} "
            f"--time-limit {solve_time_limit:g}")


@dataclass(frozen=True)
class Solution:
    """A solver's answer.  ``bound`` (the proven upper bound on the
    objective), ``gap`` and ``nodes`` come from the bundled backend, as do
    ``searches``, the number of its searches, ``split``, whether they split
    the program or raced over all of it, ``seed``, the HiGHS seed of the
    search whose answer (in a split, whose point) this is, and ``dive``,
    whether that search's point is one of the restriction its dive solved
    (``milp_shim.search``); all are None when read from a solution file.
    In a split, ``nodes`` sums those of the halves awaited, and ``bound``
    and ``gap`` are the program's, combined from theirs (see
    ``milp_shim.solve_request``).  After a dive, ``nodes`` sums those of
    the restriction and of the whole program, if that was searched.
    ``barred``, when positive, says that the program is infeasible because
    its LP relaxation has no point once x is kept at 0 on that many
    rejecting self-loops (``_rejecting_loops``); it is 0 when no such LP
    answered, and None when read from a solution file.  ``mip_barred``,
    when positive, says that the answer (in a split, some half's) comes
    from branch and bound with x kept at 0 on that many rejecting
    self-loops: then ``bound`` bounds the long-run reward of every verified
    policy, not the program's optimum, and ``infeasible`` still means that
    no policy exists; it is 0 when the search branched on the program
    unchanged, and None when read from a solution file."""

    status: str          # optimal | feasible | infeasible | timeout | error
    values: Optional[np.ndarray] = None     # one value per column, if any
    objective: Optional[float] = None
    solver_output: str = ""
    bound: Optional[float] = None
    gap: Optional[float] = None
    nodes: Optional[int] = None
    seed: Optional[int] = None
    searches: Optional[int] = None
    split: Optional[bool] = None
    dive: Optional[bool] = None
    barred: Optional[int] = None
    mip_barred: Optional[int] = None


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


def write_solution(path, status: str, objective: Optional[float], names,
                   x: Optional[np.ndarray]) -> None:
    """A solution file in the ``name value`` layout: the ``Model status:``
    line, then, if there is a point ``x``, its objective and the value of
    each column, named by ``names``."""
    lines = [f"Model status: {status}"]
    if x is not None:
        lines += [f"Objective {float(objective)!r}", f"# Columns {len(names)}"]
        lines += [f"{name} {float(v)!r}" for name, v in zip(names, x)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def solve(model: IlpModel, solver: Optional[SolverConfig] = None,
          keep_files: Optional[str] = None, round_no: int = 1) -> Solution:
    """Solve the program with ``solver.command`` (see ``SolverConfig``) if
    it is set, else with the bundled backend's worker process.

    Every outcome is a ``Solution``; a solver or worker that fails to answer
    is status ``error`` with the cause in ``solver_output``.

    ``keep_files`` names a directory that keeps ``round_<round_no>.lp`` and
    ``round_<round_no>.sol``; otherwise the external route uses a fresh
    temporary directory and removes it, and the bundled one writes no file.
    """
    solver = solver or SolverConfig()
    if not solver.command:
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
    try:
        write_lp(model, lp_path)
        try:
            # split before filling in: a path with a space stays one argument
            argv = [arg.format(lp=lp_path, sol=sol_path)
                    for arg in shlex.split(solver.command)]
            if not argv:
                raise ValueError("no command")
        except (LookupError, ValueError, AttributeError) as exc:
            return Solution("error", solver_output=(
                f"malformed solver command template {solver.command!r}: "
                f"{type(exc).__name__}: {exc}"))
        cmd = shlex.join(argv)
        try:
            proc = subprocess.run(argv, capture_output=True,
                                  text=True, timeout=solver.timeout)
        except OSError as exc:
            return Solution("error", solver_output=f"cannot launch solver: "
                                                   f"{cmd!r}: {exc}")
        except subprocess.TimeoutExpired:
            return Solution("timeout", solver_output=f"killed after "
                            f"{solver.timeout:g} s: {cmd!r}")

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
        return Solution("infeasible", solver_output=output)
    if not by_name:
        if hint == "feasible":      # stopped at a limit before any solution
            return Solution("timeout",
                            solver_output=(sol_text + output).strip())
        if proc.returncode != 0:
            return Solution("error", solver_output=(
                f"solver failed (exit {proc.returncode}) and wrote no "
                f"solution: {output[-2000:]}"))
        return Solution("error", solver_output=f"unparseable solver output: "
                                               f"{sol_text[-2000:]!r}")

    values = np.array([by_name.get(name, 0.0) for name in names])
    objective = sum(coef * values[j] for coef, j in model.objective)
    return Solution(status=hint or "feasible", values=values,
                    objective=float(objective), solver_output=output)


def _keep_stem(keep_files: str, round_no: int) -> str:
    os.makedirs(keep_files, exist_ok=True)
    return os.path.join(keep_files, f"round_{round_no}")


def _solve_bundled(model: IlpModel, time_limit: float,
                   keep_files: Optional[str], round_no: int) -> Solution:
    """One exchange with the worker (``_ask_worker``), whose searches race
    or split the program (``milp_shim.solve_request``); under
    ``keep_files`` the program is also written as LP text and the reply as
    a ``name value`` solution file."""
    program, order = highs_arrays(model)
    if keep_files is not None:
        stem = _keep_stem(keep_files, round_no)
        write_lp(model, stem + ".lp")
    seeds = _race_seeds()
    reply = _ask_worker(program, time_limit, seeds,
                        _initial_groups(model, order),
                        _rejecting_loops(model, order))
    status, x = reply.status, reply.x
    output = f"Model status: {status}"
    # 0.0 - b, not -b: a zero bound must not read -0.0
    stats = {"bound": None if reply.bound is None else 0.0 - reply.bound,
             "gap": reply.gap, "nodes": reply.nodes, "seed": reply.seed,
             "searches": len(seeds), "split": reply.split, "dive": reply.dive,
             "barred": reply.barred, "mip_barred": reply.mip_barred}
    if status == "Infeasible":
        sol = Solution("infeasible", solver_output=output, **stats)
    elif x is None and status.startswith("Time limit reached"):
        sol = Solution("timeout", solver_output=output, **stats)
    elif x is None:
        sol = Solution("error", solver_output=f"the bundled HiGHS backend "
                                              f"returned no solution: "
                                              f"{output}", **stats)
    else:
        values = np.empty(len(order))
        values[order] = x
        objective = sum(coef * values[j] for coef, j in model.objective)
        sol = Solution(
            status="optimal" if status == "Optimal" else "feasible",
            values=values, objective=float(objective), solver_output=output,
            **stats)
    if keep_files is not None:
        names = column_names(model)
        write_solution(stem + ".sol", status, sol.objective,
                       [names[j] for j in order], x)
    return sol


def _initial_groups(model: IlpModel, order: np.ndarray) -> list:
    """The HiGHS columns (``order`` maps them to model columns) of the
    policy binaries of the initial product state's pairs, one array per
    group of pairs with the same successor row and objective coefficient;
    none for a program without objective terms, which the searches race
    (see ``milp_shim.solve_request``)."""
    p = model.product
    if not model.objective:
        return []
    pos = np.argsort(order)             # the HiGHS column of each column
    coef = {j: c for c, j in model.objective}
    pi0 = Columns(p).pi0
    groups: dict = {}
    for k in p.pairs(p.initial):
        key = (tuple(sorted(p.succ[k].items())), coef.get(k, 0.0))
        groups.setdefault(key, []).append(pos[pi0 + k])
    return [np.array(g) for g in groups.values()]


def _rejecting_loops(model: IlpModel, order: np.ndarray) -> np.ndarray:
    """The HiGHS columns (``order`` maps them to model columns) of the x of
    every *rejecting self-loop* that the program does not already pin to 0:
    a pair k of product state i = (s, q) whose only successor is i, where
    no Rabin pair accepts {i} (for every pair, q is in Fin or not in Inf).

    Every point of the program that carries a verified policy (the one
    ``build_program`` constructs, x the policy's limiting frequencies) has x
    = 0 on these columns.  If x_k > 0, then i carries limiting mass, so it
    is recurrent and the policy picks k there.  k returns to i with
    probability 1 (the automaton is deterministic, so the run stays at
    (s, q)), so {i} is a reachable BSCC of the policy's chain, and a
    verified policy's BSCCs are Rabin-accepting, which {i} is not.  So the LP
    relaxation with these columns kept at 0 contains every such point, and
    when it has no point, no policy exists (``milp_shim.search``).  On a
    slip grid no pair returns to its state with probability 1, and there is
    no such column."""
    p = model.product
    pos = np.argsort(order)             # the HiGHS column of each column
    loops = [k for i in range(len(p.states)) if not bscc_accepting((i,), p)
             for k in p.pairs(i)
             if p.succ[k].keys() == {i} and model.variables[k].ub > 0.0]
    return pos[np.array(loops, dtype=np.int64)]


# ---------------------------------------------------------------------------
# The bundled backend's worker process
# ---------------------------------------------------------------------------

class Reply(NamedTuple):
    """The worker's answer to a ``Program``: the ``milp_shim.model_status``
    text; the point or None; HiGHS's dual bound, gap and node count, in its
    terms (it minimizes); whether the point is one of the restriction the
    search's dive solved (``milp_shim.search``); the HiGHS seed of the
    search whose answer (in a split, whose point) this is, None for a split
    without a point; whether the searches split the program
    (``milp_shim.solve_request``); and, for an ``Infeasible`` that the LP
    relaxation with the rejecting self-loops barred proved (in a split, in
    every half), the number of columns barred, else 0; and the number of
    columns barred in the answering search's branch and bound (in a split,
    the most of any half's), else 0 (``milp_shim.search``)."""

    status: str
    x: Optional[np.ndarray] = None
    bound: Optional[float] = None
    gap: Optional[float] = None
    nodes: Optional[int] = None
    dive: bool = False
    seed: Optional[int] = None
    split: bool = False
    barred: int = 0
    mip_barred: int = 0


# HiGHS's random_seed of each search: its time on one program can move 20x
# with the seed, so the first of differently seeded searches to finish tends
# to answer well before a lone one.  See ``_race_seeds`` for how many run.
_RACER_SEEDS = (0, 1)
_WORKER_ARGS = (sys.executable, "-c",
                "from ssltl.milp_shim import serve; serve()")
_worker_lock = threading.Lock()
_worker: Optional[subprocess.Popen] = None      # this process's worker


def single_search() -> None:
    """Run one search in this process from now on, which solves every
    program whole: for a process that shares the CPUs with others of its
    kind, as each process of ``ssltl bench --workers N`` does."""
    global _RACER_SEEDS
    _RACER_SEEDS = _RACER_SEEDS[:1]


def _race_seeds() -> tuple:
    """The seeds of this process's searches: ``_RACER_SEEDS`` cut to the
    CPUs it may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return _RACER_SEEDS[:cpus]


def _ask_worker(*request) -> Reply:
    """Send the arguments of ``milp_shim.solve_request`` to this process's
    worker (``milp_shim.serve``), started if there is none or it has died,
    and return its reply.  A worker that exits without a reply is dropped,
    and the reply made up for it is an ``Error``; any other interruption
    kills and drops the worker, and propagates."""
    global _worker
    with _worker_lock:
        if _worker is not None and _worker.poll() is not None:
            _stop_worker()
        if _worker is None:
            # the worker imports this very package, wherever it was found
            path = [os.path.dirname(os.path.dirname(os.path.abspath(
                __file__))), os.environ.get("PYTHONPATH")]
            env = dict(os.environ,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            _worker = subprocess.Popen(_WORKER_ARGS, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, env=env)
        try:
            pickle.dump(request, _worker.stdin,
                        protocol=pickle.HIGHEST_PROTOCOL)
            _worker.stdin.flush()
            return _receive(_worker)
        except (EOFError, pickle.UnpicklingError, BrokenPipeError):
            code = _stop_worker(grace=5.0)
            return Reply(f"Error (the bundled solver worker exited, code "
                         f"{code}, without a reply)")
        except BaseException:
            _stop_worker(grace=0.0)
            raise


def _receive(proc: subprocess.Popen) -> Reply:
    return pickle.load(proc.stdout)


def _close_pipes() -> None:
    """Close the pipes to the worker: an idle worker then reads EOF, and the
    searches of a busy one stop at their next interrupt checks."""
    for pipe in (_worker.stdin, _worker.stdout):
        with contextlib.suppress(OSError):
            pipe.close()


@atexit.register
def _stop_worker(grace: float = 1.0) -> Optional[int]:
    """Drop this process's worker, if any, and return its exit code: close
    its pipes and reap it, killing it after ``grace`` seconds."""
    global _worker
    if _worker is None:
        return None
    _close_pipes()
    proc, _worker = _worker, None
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return proc.returncode


def _forget_worker() -> None:
    """In a fork child: close the pipes to the parent's worker, so that only
    its owner holds them; the child starts its own."""
    global _worker
    if _worker is not None:
        _close_pipes()
        _worker = None


os.register_at_fork(after_in_child=_forget_worker)


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
