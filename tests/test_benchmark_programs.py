"""The benchmark's programs, pinned.

A change to the program moves the HiGHS time of the benchmark's instances by
more than its bounds (see perfbench/README.md), so the LP text of every
instance of ``perfbench/workloads.py``, in both objectives, is hashed here.
A deliberate change to the program regenerates the hash and says so.
"""

import hashlib
import sys
from pathlib import Path

from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.ilp import IlpConfig, build_program, export_lp, highs_arrays
from ssltl.milp_shim import parse_lp
from ssltl.product import build_product

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.workloads import WORKLOADS, load  # noqa: E402

# small-feas, large-feas, bnb-hard, then the smoke (warm-up) instance; per
# instance the reward program, then the feasibility one.
PROGRAMS_SHA256 = ("dca1768ec6981f48075b2ab8cc58d323"
                   "a3e9c6416b9e16a8072b34890deaca7b")


def benchmark_programs():
    """Every instance's program, in the order of ``PROGRAMS_SHA256``."""
    for table in WORKLOADS.values():
        for inst in table:
            r = load(inst, REPO_ROOT)
            p = build_product(r.model, r.dra)
            amecs = accepting_mecs(mec_decomposition(p), p)
            for objective in ("expected_reward", "feasibility"):
                yield build_program(p, amecs, r.spec,
                                    IlpConfig(objective=objective))


def test_benchmark_programs_are_unchanged():
    digest = hashlib.sha256()
    for model in benchmark_programs():
        digest.update(export_lp(model).encode())
    assert digest.hexdigest() == PROGRAMS_SHA256


def test_lp_text_reads_back_into_the_same_highs_arrays():
    """``ssltl-milp`` hands HiGHS, for the LP text of each benchmark program,
    the bytes the bundled worker gets for the program itself."""
    for model in benchmark_programs():
        ours, _ = highs_arrays(model)
        theirs, order = highs_arrays(parse_lp(export_lp(model)).model)
        assert list(order) == list(range(len(order)))
        for a, b in zip(ours, theirs, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
