"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: invalid input -> 2,
certification failure -> 3, internal invariant violation -> 4.
"""


class DivmaxError(Exception):
    """Base class for all package errors."""


class InvalidInputError(DivmaxError, ValueError):
    """Malformed or out-of-contract input (bad matrix, bad index, bad document)."""


class CertificationError(DivmaxError):
    """A distance failed negative-type certification where one was required."""


class InternalInvariantError(DivmaxError):
    """An internal consistency check failed; indicates a bug, not bad input."""
