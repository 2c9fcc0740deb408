"""Benchmark workloads: fixed instance tables and the seeded generator.

Every instance names a model (a ``generate_grid`` grid or a model file), a
spec file, the program objective and the verdict the pipeline must reach;
reward instances also carry their proven optimum.  ``build`` turns a table
into runnable instances.  The seed only sets the order in which the
instances run, so runs with different seeds are repeats on the same
programs: reordering the states of a model changes the HiGHS time of its
program severalfold (see orderings.py), which would drown the changes the
benchmark exists to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Instance:
    name: str
    model: tuple            # ("grid", width, height, grid_seed, dynamics) | ("file", path)
    spec: str               # spec path, relative to the checkout root
    objective: str          # "feasibility" | "expected_reward"
    expect: str             # "verified" | "infeasible"
    optimum: Optional[float] = None


SPECS = "fixtures/specs"
GF_ABCC = "fixtures/grid8x8/spec.json"
TIGHT_D = "perfbench/specs/theta2_d_high.json"
DET, SLIP = "deterministic", "slip"
SHORT = {DET: "det", SLIP: "slip"}


def _feas(name, model, spec):
    return Instance(name, model, spec, "feasibility", "verified")


def _grid(width, height, grid_seed, dynamics=DET):
    return ("grid", width, height, grid_seed, dynamics)


# Grid seed 0 of theta2 det needs two solver rounds, grid seed 2 of theta2
# slip three; the others one.
SMALL_FEAS = (
    tuple(_feas(f"4x4-{theta}-{SHORT[dyn]}-g{g}", _grid(4, 4, g, dyn),
                f"{SPECS}/{theta}.json")
          for theta in ("theta2", "theta4") for dyn in (DET, SLIP)
          for g in (0, 2))
    + (_feas("6x6-gf_abcc-g0", _grid(6, 6, 0), GF_ABCC),)
)

# One solver round each.  Apart from the fixture, every instance takes 2.5 to
# 3.5 s on a 2-core machine, so the median verdict time of a run is drawn
# from several instances and passes, not from one instance.
LARGE_FEAS = (
    _feas("8x8-fixture", ("file", "fixtures/grid8x8/model.json"), GF_ABCC),
    _feas("10x10-theta4-g0", _grid(10, 10, 0), f"{SPECS}/theta4.json"),
    _feas("11x11-gf_abcc-g0", _grid(11, 11, 0), GF_ABCC),
    _feas("12x12-gf_abcc-g0", _grid(12, 12, 0), GF_ABCC),
)

# A reward plateau: the LP bound stays at 1.0 while branch and bound proves
# the incumbent 0.7 optimal.  Two infeasibility proofs: theta2 is in the
# same automaton state on every d-cell, so with deterministic moves a
# product policy meets each of the 3 d-cells at most once per cycle, and an
# accepting cycle also meets an a- or b-cell.  The long-run mass on d is at
# most 3/4 < 0.9 for every policy, and the search has to show it.
BNB_HARD = (
    Instance("3x4-theta2-g1-reward", _grid(3, 4, 1), f"{SPECS}/theta2.json",
             "expected_reward", "verified", 0.7),
    Instance("3x4-theta2-g1-dhigh", _grid(3, 4, 1), TIGHT_D, "feasibility",
             "infeasible"),
    Instance("4x3-theta2-g0-dhigh", _grid(4, 3, 0), TIGHT_D, "feasibility",
             "infeasible"),
)

# Solved once before timing so that the first timed solve does not pay for
# cold file caches.
WARMUP = _feas("4x4-theta4-det-g1", _grid(4, 4, 1), f"{SPECS}/theta4.json")

WORKLOADS = {
    "small-feas": SMALL_FEAS,
    "large-feas": LARGE_FEAS,
    "bnb-hard": BNB_HARD,
    "smoke": (WARMUP,),     # one instance, for the benchmark's own tests
}


@dataclass(frozen=True)
class Runnable:
    inst: Instance
    model: object           # ssltl.model.Lmdp
    dra: object             # ssltl.hoa.Dra
    spec: object            # ssltl.model.SsLtlSpec


def load(inst: Instance, root: Path) -> Runnable:
    from ssltl.hoa import load_hoa
    from ssltl.model import GridSpec, generate_grid, load_model, load_spec

    if inst.model[0] == "grid":
        _, width, height, grid_seed, dynamics = inst.model
        m = generate_grid(GridSpec(width, height, seed=grid_seed,
                                   dynamics=dynamics))
    else:
        m = load_model(root / inst.model[1])
    spec = load_spec(root / inst.spec)
    return Runnable(inst, m, load_hoa(spec.dra_source), spec)


def build(workload: str, seed: int, root: Path) -> list:
    """The workload's instances for this seed, in run order."""
    import numpy as np

    table = WORKLOADS[workload]
    order = np.random.default_rng([seed, len(table)]).permutation(len(table))
    return [load(table[int(i)], root) for i in order]
