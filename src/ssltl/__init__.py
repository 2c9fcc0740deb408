"""Synthesis and verification of deterministic finite-memory policies for
labeled MDPs under combined omega-regular (Rabin automaton) and steady-state
interval objectives.

The pipeline: build the product of a labeled MDP with a deterministic Rabin
automaton, find its accepting end components, assemble a mixed integer
linear program over occupation measures and reachability flows, drive
a MILP solver (the bundled HiGHS worker, one process per calling process
whose searches run as threads, fed arrays, or an external command, fed LP
files), and independently verify the induced chain's asymptotic behavior.
"""

from ssltl.errors import (
    SsltlError,
    ModelError,
    HoaError,
    PolicyError,
    SolverError,
    NoAcceptingStructureError,
)

__version__ = "0.1.0"

__all__ = [
    "SsltlError",
    "ModelError",
    "HoaError",
    "PolicyError",
    "SolverError",
    "NoAcceptingStructureError",
    "__version__",
]
