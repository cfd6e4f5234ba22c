"""Exact-arithmetic toolkit for full-wreath-product arboreal Galois groups.

Builds degree-d trinomials f(x) = x^d - b*x^m and base points x0 over Q
whose iterated preimage trees realize the full n-fold wreath product of
S_d at every certified depth, and emits machine-checkable certificates
for the underlying hypotheses, cross-validated by independent oracles
(resultants, the cycle index of the tree group, Frobenius cycle-type
sampling); the polynomial algebra over Q behind several oracles lives
in the test suite.

The package root exports the engine behind each ``odoni`` subcommand
(``construct``, ``certify``, ``disc``, ``newton``, ``group-check``,
``frobenius``) and the two per-parity constructors; everything else is
imported from its own module.
"""

from .certify import certify
from .construct import build_params, build_params_even, build_params_odd
from .frobenius import run_frobenius
from .newton import newton_polygon
from .permgroup import gen_sd_check
from .poly import disc_iterate, disc_trinomial

__version__ = "0.1.0"

__all__ = [
    "build_params",
    "build_params_even",
    "build_params_odd",
    "certify",
    "disc_iterate",
    "disc_trinomial",
    "gen_sd_check",
    "newton_polygon",
    "run_frobenius",
]
