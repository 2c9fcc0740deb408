"""End-to-end synthesis pipeline: product, accepting components, program,
solve, policy extraction, and mandatory independent verification.

Each round's solve goes to the configured external command, else to the
bundled backend's long-lived worker process, which the first round starts
and every later round (and every later call) reuses, so a cut round costs
the solve itself, not a solver start.

The optimization layer alone can accept assignments whose induced chain is
not a unichain or whose long-run behavior is not accepting (its indicator
system reasons at component granularity and its acceptance-mass constraint
ignores the finiteness half of the Rabin pairs).  Verification is therefore
the ground truth: a rejected candidate policy is excluded with a no-good cut
over its reachable decisions and the program is re-solved.  Only a verified
policy is ever reported as feasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from ssltl.errors import NoAcceptingStructureError, PolicyError
from ssltl.graph import accepting_mecs, bscc_accepting, bsccs, \
    mec_decomposition
from ssltl.hoa import Dra
from ssltl.ilp import (
    Columns,
    IlpConfig,
    IlpRow,
    Solution,
    SolverConfig,
    build_program,
    extract_policy,
    solve,
)
from ssltl.model import Lmdp, SsLtlSpec
from ssltl.product import Policy, ProductLmdp, build_product, induce_chain
from ssltl.verify import VerificationReport, verify_policy

DEFAULT_MAX_CUT_ROUNDS = 64


@dataclass(frozen=True)
class SynthesisResult:
    status: str     # verified | infeasible | unverified | timeout | error
    policy: Optional[Policy]
    report: Optional[VerificationReport]
    solution: Optional[Solution]
    objective: Optional[float]
    rounds: int
    solve_seconds: float
    total_seconds: float
    detail: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == "verified"


def _rejection_cuts(p: ProductLmdp, pi: Policy, round_index: int) -> list:
    """Cuts excluding the failed candidate.

    Always: a no-good cut over the states reachable under ``pi`` (policies
    agreeing there induce the identical chain and share the verdict).

    Additionally, for every reachable Rabin-rejecting BSCC B of the failed
    chain: a policy that keeps all of B's actions leaves B a closed rejecting
    loop, and occupation mass inside B would make B flow-reachable, which no
    accepting policy allows; so mass(B) + sum of B's kept-action binaries
    <= |B| is valid for every truly feasible solution and removes the whole
    family at once.
    """
    pi0 = Columns(p).pi0
    chain = induce_chain(p, pi)
    chosen = {i: pi0 + p.chosen_pair(i, pi) for i in chain.states}
    cuts = []
    terms = tuple((1.0, chosen[i]) for i in chain.states)
    cuts.append(IlpRow(f"c_cut_{round_index}_nogood", terms, "<=",
                       float(len(terms) - 1)))
    dec = bsccs(chain)
    for b_idx, b in enumerate(dec.bsccs):
        if bscc_accepting(b, p):
            continue
        ordered = sorted(b)
        mass_terms = [(1.0, k) for i in ordered for k in p.pairs(i)]
        kept = [(1.0, chosen[i]) for i in ordered]
        cuts.append(IlpRow(f"c_cut_{round_index}_loop{b_idx}",
                           tuple(mass_terms + kept), "<=", float(len(b))))
    return cuts


def synthesize(m: Lmdp, d: Dra, spec: SsLtlSpec,
               cfg: Optional[IlpConfig] = None,
               solver: Optional[SolverConfig] = None,
               max_cut_rounds: int = DEFAULT_MAX_CUT_ROUNDS,
               keep_files: Optional[str] = None) -> SynthesisResult:
    t0 = time.monotonic()
    cfg = cfg or IlpConfig()
    product = build_product(m, d)
    amecs = accepting_mecs(mec_decomposition(product), product)

    try:
        model = build_program(product, amecs, spec, cfg)
    except NoAcceptingStructureError as exc:
        return SynthesisResult(status="infeasible", policy=None, report=None,
                               solution=None, objective=None, rounds=0,
                               solve_seconds=0.0,
                               total_seconds=time.monotonic() - t0,
                               detail=str(exc))

    solve_seconds = 0.0
    rounds = 0
    last_report = None
    last_solution = None
    last_policy = None
    while rounds < max_cut_rounds:
        rounds += 1
        t_solve = time.monotonic()
        sol = solve(model, solver, keep_files=keep_files, round_no=rounds)
        solve_seconds += time.monotonic() - t_solve
        if sol.status == "infeasible":
            return SynthesisResult(
                status="infeasible", policy=None, report=last_report,
                solution=sol, objective=None, rounds=rounds,
                solve_seconds=solve_seconds,
                total_seconds=time.monotonic() - t0)
        if sol.status in ("timeout", "error"):
            what = ("stopped at its time limit without a feasible solution"
                    if sol.status == "timeout"
                    else "returned an unusable status")
            return SynthesisResult(
                status=sol.status, policy=None, report=None, solution=sol,
                objective=None, rounds=rounds, solve_seconds=solve_seconds,
                total_seconds=time.monotonic() - t0,
                detail=f"solver {what}: {sol.solver_output.strip()[-500:]}")
        try:
            pi = extract_policy(sol, product)
        except PolicyError as exc:
            return SynthesisResult(
                status="error", policy=None, report=None, solution=sol,
                objective=None, rounds=rounds, solve_seconds=solve_seconds,
                total_seconds=time.monotonic() - t0, detail=str(exc))
        report = verify_policy(m, d, spec, pi, product=product)
        last_report, last_solution, last_policy = report, sol, pi
        if report.verdict:
            return SynthesisResult(
                status="verified", policy=pi, report=report, solution=sol,
                objective=sol.objective, rounds=rounds,
                solve_seconds=solve_seconds,
                total_seconds=time.monotonic() - t0)
        cuts = _rejection_cuts(product, pi, rounds - 1)
        model = replace(model, rows=model.rows + tuple(cuts))

    return SynthesisResult(
        status="unverified", policy=last_policy, report=last_report,
        solution=last_solution, objective=None, rounds=rounds,
        solve_seconds=solve_seconds, total_seconds=time.monotonic() - t0,
        detail=f"no verified policy within {max_cut_rounds} solver rounds")
