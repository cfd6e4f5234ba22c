"""Permutation operations that only the test suite uses.

``odoni.permgroup.Perm`` keeps what the program needs (its images, its
degree, and applying it to a point); the composition, inverse, cycle
type and the 1-based cycle constructor that the tests and the wreath
oracle build on live here.

Convention, pinned by tests: composition acts right-to-left, i.e.
compose(a, b)(x) = a(b(x)).
"""

from __future__ import annotations

from typing import Sequence

from odoni.permgroup import Perm


def identity(d: int) -> Perm:
    return Perm(range(d))


def from_cycles(d: int, *cycles: Sequence[int]) -> Perm:
    """Build from disjoint cycles in 1-based notation, e.g. (1, 2, 3)."""
    images = list(range(d))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
            if not 1 <= a <= d:
                raise ValueError(f"cycle point {a} outside 1..{d}")
            images[a - 1] = b - 1
    return Perm(images)


def compose(a: Perm, b: Perm) -> Perm:
    """a * b: b acts first."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    return Perm(tuple(a.images[j] for j in b.images))


def inverse(a: Perm) -> Perm:
    out = [0] * a.degree
    for i, j in enumerate(a.images):
        out[j] = i
    return Perm(out)


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Partition of the degree, sorted descending."""
    seen = [False] * a.degree
    lengths = []
    for i in range(a.degree):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a.images[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def is_transposition(a: Perm) -> bool:
    return cycle_type(a) == (2,) + (1,) * (a.degree - 2)
