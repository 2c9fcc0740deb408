"""End-to-end synthesis pipeline: product, accepting components, program,
solve, policy extraction, and mandatory independent verification.

The accepting components are the MECs of the product's accepting region
(``graph.accepting_mecs``), so an accepting end component inside a MEC that
touches a Fin set is found too.  ``infeasible`` after 0 rounds means the
product has no accepting end component at all, or that no policy reaches
one from the initial state with probability 1.  A verified policy does:
each of its BSCCs lies in an accepting component (see
``ilp.build_program``), and the chain reaches its BSCCs almost surely.

Each round's solve goes to the configured external command, else to the
bundled backend's long-lived worker process, which the first round starts
and every later round (and every later call) reuses, so a cut round costs
the solve itself, not a solver start.  On two CPUs the worker's two search
threads split a reward program's policies between them on the initial
state's actions, and race over a feasibility program
(``milp_shim.solve_request``), each diving first into the restriction its
LP relaxation leaves (``milp_shim.search``).  Before branch and bound, a
search (in a race, the first) solves the LP relaxation with x barred from
the absorbing self-loops no Rabin pair accepts; when that has no point,
the run ends ``infeasible`` with a ``detail`` that says so.

The program's occupation measure x lives on the pairs the accepting
components retain, so a candidate's x is a stationary measure inside them.
The optimization layer alone can still accept assignments whose induced
chain is not a unichain or whose long-run behavior is not accepting: x need
not be the limiting distribution from the initial state, so the policy may
reach a rejecting BSCC that carries no x; its indicator system reasons at
component granularity; and its acceptance-mass row, which counts only pairs
some Rabin pair can accept, still counts x on a BSCC that fails every pair
where that BSCC passes through a maximal accepting end component of some
pair without lying inside it (see ``ilp.build_program``), and is met when
another BSCC carries the counted mass.  Verification is therefore the
ground truth: a rejected candidate policy is excluded with a no-good cut
over its reachable decisions and the program is re-solved.  Only a verified
policy is ever reported as feasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from ssltl.errors import ModelError, PolicyError
from ssltl.graph import accepting_mecs, almost_sure_reach, \
    mec_decomposition
from ssltl.hoa import Dra
from ssltl.ilp import (
    Columns,
    IlpConfig,
    IlpModel,
    IlpRow,
    Solution,
    SolverConfig,
    build_program,
    extract_policy,
    solve,
)
from ssltl.model import Lmdp, SsLtlSpec
from ssltl.product import Policy, build_product
from ssltl.verify import VerificationReport, verify_policy

DEFAULT_MAX_CUT_ROUNDS = 64


@dataclass(frozen=True)
class SynthesisResult:
    status: str     # verified | infeasible | unverified | timeout | error
    policy: Optional[Policy]
    report: Optional[VerificationReport]
    solution: Optional[Solution]
    objective: Optional[float]  # verified: the policy's long-run reward
    rounds: int
    solve_seconds: float
    total_seconds: float
    detail: str = ""


def _rejection_cuts(model: IlpModel, pi: Policy,
                    report: VerificationReport, round_index: int) -> list:
    """Cuts excluding the failed candidate, read off its verification report.

    A *step* of state i is the set of i's pairs whose successor row
    ``p.succ`` equals that of pi's pair; a cut sums a step's binaries at each
    state it names.  Policies that differ only within steps induce the
    identical chain and share the verdict.  Always: a no-good cut over pi's
    steps at the states pi reaches.

    Additionally, for every Rabin-rejecting BSCC B of the failed chain: a
    policy that keeps all of B's steps leaves B a closed rejecting loop, so
    a verified policy that keeps them never reaches B, and its limiting
    distribution puts no mass on B's pairs.  So mass(B) + the binaries of
    B's steps <= |B| holds for the solution that carries any verified
    policy, and removes the whole family at once.  Where the program pins
    the x column of every pair of B's states to 0 (no accepting component
    retains any of them), the row reduces to binaries <= |B|, which always
    holds, and is left out.
    """
    p = model.product
    pi0 = Columns(p).pi0
    steps = {}
    for i in report.chain.states:
        row = p.succ[p.chosen_pair(i, pi)]
        steps[i] = [(1.0, pi0 + k) for k in p.pairs(i) if p.succ[k] == row]
    cuts = [IlpRow(f"c_cut_{round_index}_nogood",
                   tuple(t for i in report.chain.states for t in steps[i]),
                   "<=", float(len(report.chain.states) - 1))]
    for b_idx, (b, accepting) in enumerate(zip(report.bsccs,
                                               report.rabin_ok)):
        ordered = sorted(b)
        mass_terms = [(1.0, k) for i in ordered for k in p.pairs(i)]
        if accepting or all(model.variables[k].ub == 0.0
                            for _, k in mass_terms):
            continue
        kept = [t for i in ordered for t in steps[i]]
        cuts.append(IlpRow(f"c_cut_{round_index}_loop{b_idx}",
                           tuple(mass_terms + kept), "<=", float(len(b))))
    return cuts


def synthesize(m: Lmdp, d: Dra, spec: SsLtlSpec,
               cfg: Optional[IlpConfig] = None,
               solver: Optional[SolverConfig] = None,
               max_cut_rounds: int = DEFAULT_MAX_CUT_ROUNDS,
               keep_files: Optional[str] = None) -> SynthesisResult:
    """Run the cut loop until a candidate verifies, the solver ends it, or
    ``max_cut_rounds`` solves are spent.  A solver failure ends in status
    ``error`` with its cause in ``detail``; only a malformed argument or
    instance raises.  A verified result's ``objective`` is the policy's
    long-run reward per step (``_long_run_objective``), not the solver's."""
    if max_cut_rounds < 1:
        raise ModelError(f"max_cut_rounds must be at least 1, "
                         f"not {max_cut_rounds!r}")
    t0 = time.monotonic()
    cfg = cfg or IlpConfig()
    product = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(product), product)

    sol = pi = report = None
    rounds, solve_seconds = 0, 0.0
    status = "unverified"
    detail = f"no verified policy within {max_cut_rounds} solver rounds"
    if product.initial in almost_sure_reach(product,
                                            frozenset().union(*amecs)):
        model = build_program(product, amecs, spec, cfg)
    else:       # also when there is no accepting component at all
        status, detail = "infeasible", (
            "no policy reaches an accepting end component with probability 1")
    while status == "unverified" and rounds < max_cut_rounds:
        rounds += 1
        t_solve = time.monotonic()
        sol = solve(model, solver, keep_files=keep_files, round_no=rounds)
        solve_seconds += time.monotonic() - t_solve
        if sol.status == "infeasible":
            status, detail = "infeasible", _infeasible_detail(sol)
            break
        if sol.status in ("timeout", "error"):
            status, detail = sol.status, _solver_detail(sol)
            break
        try:
            pi = extract_policy(sol, product)
        except PolicyError as exc:
            status, detail = "error", str(exc)
            break
        report = verify_policy(m, d, spec, pi, product=product)
        if report.verdict:
            status, detail = "verified", ""
            break
        cuts = _rejection_cuts(model, pi, report, rounds - 1)
        model = replace(model, rows=model.rows + tuple(cuts))

    return SynthesisResult(
        status=status,
        policy=pi if status in ("verified", "unverified") else None,
        report=None if status in ("timeout", "error") else report,
        solution=sol,
        objective=(_long_run_objective(model, pi, report)
                   if status == "verified" else None),
        rounds=rounds, solve_seconds=solve_seconds,
        total_seconds=time.monotonic() - t0, detail=detail)


def _long_run_objective(model: IlpModel, pi: Policy,
                        report: VerificationReport) -> float:
    """The program's objective at the verifier's limiting distribution of
    ``pi`` from the initial state: the long-run reward per step (0 in
    feasibility mode).  The solver's x need not be that distribution, so
    ``solution.objective`` may differ."""
    p = model.product
    coef = {j: c for c, j in model.objective}
    dist = report.product_distribution
    return sum(dist.get(p.states[i], 0.0) * coef.get(p.chosen_pair(i, pi), 0.0)
               for i in report.chain.states)


def _infeasible_detail(sol: Solution) -> str:
    """Why an ``infeasible`` solve proves that no policy exists, where the
    solver says why: only the bundled backend's check of the rejecting
    self-loops does (``milp_shim.search``); else empty."""
    if not sol.barred:
        return ""
    loops = "loop" if sol.barred == 1 else "loops"
    return (f"no policy: the LP relaxation has no point once x is kept off "
            f"the {sol.barred} absorbing self-{loops} that no Rabin pair "
            f"accepts")


def _solver_detail(sol: Solution) -> str:
    """Why a ``timeout`` or ``error`` solve ends the run; a failure's cause
    leads, a solver log is cut to its end."""
    text = sol.solver_output.strip()
    if sol.status == "timeout":
        return ("solver stopped at its time limit without a feasible "
                f"solution: {text[-500:]}")
    if sol.values is None:
        return f"solver error: {text}"
    return f"solver returned an unusable status: {text[-500:]}"
