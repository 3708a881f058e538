"""Exact cohomology computations for nilpotent radicals of parabolic
subgroups, their first Frobenius kernels, and quantum analogs at a root of
unity: decomposition theorems, graded characters, explicit ring structure,
and independent brute-force verification, all in exact arithmetic.

Importing the package loads no submodule; import from `nilcoh.<module>`."""

__version__ = "1.0.0"  # certificates record it as tool_version
