"""Exception hierarchy shared across the package."""


class SsltlError(Exception):
    """Base class for all package errors."""


class ModelError(SsltlError):
    """Malformed or invalid model / specification data."""


class HoaError(SsltlError):
    """Malformed, non-deterministic, incomplete or unsupported automaton."""


class PolicyError(SsltlError):
    """Missing policy entries or a corrupt solver assignment."""


class SolverError(SsltlError):
    """A solver failure raised by a caller of the pipeline; ``ilp.solve``
    itself reports every failure as status ``error``."""


class NoAcceptingStructureError(SsltlError):
    """The product has no accepting end component; the instance is
    structurally infeasible."""
