"""Exact-arithmetic toolkit for full-wreath-product arboreal Galois groups.

Builds degree-d trinomials f(x) = x^d - b*x^m and base points x0 over Q
whose iterated preimage trees realize the full n-fold wreath product of
S_d at every certified depth, and emits machine-checkable certificates
for the underlying hypotheses, cross-validated by independent oracles
(resultants, the cycle index of the tree group, Frobenius cycle-type
sampling); the polynomial algebra over Q behind several oracles lives
in the test suite.
"""

from .arith import INFINITY, Rational, crt, is_prime, is_square, legendre, val
from .certify import Certificate, certify, exhibit_odd_prime_q
from .construct import (
    IterInstance,
    build_params,
    build_params_even,
    build_params_odd,
)
from .frobenius import chebotarev_distance, sample_distribution
from .newton import newton_polygon, ramification_tower
from .permgroup import (
    Perm,
    gen_sd_check,
    leaf_type_distribution,
    wreath_order,
)
from .poly import Trinomial, disc_iterate, disc_trinomial

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "INFINITY",
    "IterInstance",
    "Perm",
    "Rational",
    "Trinomial",
    "build_params",
    "build_params_even",
    "build_params_odd",
    "certify",
    "chebotarev_distance",
    "crt",
    "disc_iterate",
    "disc_trinomial",
    "exhibit_odd_prime_q",
    "gen_sd_check",
    "is_prime",
    "is_square",
    "leaf_type_distribution",
    "legendre",
    "newton_polygon",
    "ramification_tower",
    "sample_distribution",
    "val",
    "wreath_order",
]
