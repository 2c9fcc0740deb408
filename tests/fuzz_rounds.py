#!/usr/bin/env python3
"""Cut-loop rounds and verdicts on the fuzz set of the oracle property.

Every instance ``oracle_instance`` (tests/test_synthesis.py) makes for seeds
0 .. N-1 x det_prob {0.6, 0.75, 0.9} x ss {no, yes} goes through
``synthesize`` on the bundled backend with the default round budget, and its
verdict is compared with ``brute_force_synth`` wherever that can enumerate.
``--objective feasibility`` builds feasibility programs in place of the
default reward programs: every search of one dives first
(``milp_shim.search``).
One line is printed (wrapped here):

    instances 3000 rounds 2040 over1 69 max 15 wrong 0 unverified 0
    objective_differs 10

``over1`` counts the runs that need more than one round.  ``wrong`` counts
the verdicts the oracle contradicts, and every ``timeout`` or ``error``.
``objective_differs`` counts the verified runs whose solver objective (the
value of x) is not the reported long-run reward: x is not the policy's
limiting distribution there.  The exit status is 1 on a wrong verdict or an
``unverified`` run.  ``--search S`` runs only the bundled backend's search
of HiGHS seed S in each process.  Without it, each of several pool
processes runs one search, as each process of ``ssltl bench --workers N``
does, and a lone pool process all it may: on two CPUs they split every
reward program (``--workers 1``).

    python tests/fuzz_rounds.py [--seeds 500] [--workers 2] [--search S]
        [--objective feasibility]
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from helpers import EnumerationLimitError, brute_force_synth  # noqa: E402
from test_synthesis import oracle_instance  # noqa: E402
from ssltl import ilp  # noqa: E402
from ssltl.ilp import IlpConfig  # noqa: E402
from ssltl.synthesis import synthesize  # noqa: E402

DET_PROBS = (0.6, 0.75, 0.9)
OBJECTIVE_TOL = 1e-6


def run(case: tuple, objective: str) -> tuple:
    """(rounds, wrong, unverified, objective differs) of one instance."""
    m, d, spec = oracle_instance(*case)
    result = synthesize(m, d, spec, cfg=IlpConfig(objective=objective))
    try:
        expected = ("infeasible" if brute_force_synth(m, d, spec) is None
                    else "verified")
    except EnumerationLimitError:
        expected = None
    status = result.status
    wrong = status in ("timeout", "error") or (
        expected is not None and status in ("verified", "infeasible")
        and status != expected)
    differs = status == "verified" and abs(
        result.solution.objective - result.objective) > OBJECTIVE_TOL
    return result.rounds, wrong, status == "unverified", differs


def race_only(seed, workers: int) -> None:
    if seed is not None:
        ilp._RACER_SEEDS = (seed,)
    elif workers > 1:
        ilp.single_search()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=500,
                        help="seeds 0 .. N-1, N >= 1 (default 500)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--search", type=int, choices=ilp._RACER_SEEDS,
                        help="run only the search of this seed")
    parser.add_argument("--objective", default="expected_reward",
                        choices=("expected_reward", "feasibility"),
                        help="the programs' objective (default "
                             "expected_reward)")
    args = parser.parse_args(argv)
    cases = [(seed, det, ss) for seed in range(args.seeds)
             for det in DET_PROBS for ss in (False, True)]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(args.workers, mp_context=spawn,
                             initializer=race_only,
                             initargs=(args.search, args.workers)) as pool:
        rounds, wrong, unverified, differs = zip(
            *pool.map(functools.partial(run, objective=args.objective),
                      cases, chunksize=8))
    print(f"instances {len(rounds)} rounds {sum(rounds)} "
          f"over1 {sum(r > 1 for r in rounds)} max {max(rounds)} "
          f"wrong {sum(wrong)} unverified {sum(unverified)} "
          f"objective_differs {sum(differs)}")
    return 1 if any(wrong) or any(unverified) else 0


if __name__ == "__main__":
    sys.exit(main())
