"""Exact cohomology computations for nilpotent radicals of parabolic
subgroups, their first Frobenius kernels, and quantum analogs at a root of
unity: decomposition theorems, graded characters, explicit ring structure,
and independent brute-force verification, all in exact arithmetic.

Importing the package loads no submodule; import from `nilcoh.<module>`.
The package defines only the two base refusals, which any submodule can
then raise without loading another module."""

__version__ = "1.0.0"  # certificates record it as tool_version


class PreconditionError(ValueError):
    """An input outside a stated regime or precondition (Cartan type,
    alcove membership, modulus bound, gate); the CLI exits 2 on it."""


class BudgetError(PreconditionError):
    """An input whose computation would exceed a size budget."""
