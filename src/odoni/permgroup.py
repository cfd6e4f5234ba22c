"""Permutations, the S_d generation verdict, and the leaf cycle-type
law of the full d-ary tree group.

The generated group is never listed. A stabilizer chain built by
deterministic Schreier-Sims gives its order as the product of the basic
orbit lengths and decides membership by sifting, in time polynomial in
d (d <= MAX_CLOSURE_DEGREE), where listing S_8 alone means 40320
tuples. The automorphism group of the complete d-ary tree of depth n is
the n-fold iterated wreath product of S_d, of order
(d!)^((d^n - 1)/(d - 1)); its leaf cycle-type law comes from the cycle
index, without listing the group. Listing either group is the test
suite's oracle.

Products of permutations are formed only inside the chain, on image
tuples, acting right-to-left: (g * h)[x] = g[h[x]].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

# largest degree group-check takes: the costliest generator family tried
# there, A_40 from 38 three-cycles, builds its chain and sifts all 780
# transpositions in about 0.4 s (CPython 3.11); the cost grows about as d^4
MAX_CLOSURE_DEGREE = 40


class Perm:
    """Permutation of {0..d-1} as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *_):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def _inverse(u: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(u)
    for i, j in enumerate(u):
        out[j] = i
    return tuple(out)


class _StabilizerChain:
    """Base and strong generating set of the group generated by image
    tuples of degree d, by deterministic Schreier-Sims (Sims, 1970;
    Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    Level l holds the base point b_l, the strong generators fixing
    b_0..b_(l-1), and the transversal: for each point x of the orbit of
    b_l, a coset representative u with u[b_l] = x, stored with its
    inverse. Every Schreier generator of every level is sifted through
    the levels below it; ``checked[l][x]`` counts the leading generators
    of level l whose pair with x has been. Once all are, the group order
    is the product of the orbit lengths and sifting decides membership.
    """

    def __init__(self, d: int, generators: Sequence[tuple[int, ...]]):
        self.identity = tuple(range(d))
        self.base: list[int] = []
        self.gens: list[list[tuple[int, ...]]] = []
        self.transversal: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
        self.checked: list[dict[int, int]] = []
        for g in generators:
            residue, level = self.sift(g)
            if residue != self.identity:
                self._add(residue, 0, level)
                self._complete(level)

    def sift(self, g: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip g through the levels from ``start`` on: the residue and
        the level it drops out at (the chain length if it passes all).
        g is a member iff the residue is the identity."""
        for level in range(start, len(self.base)):
            b = self.base[level]
            x = g[b]
            if x != b:
                entry = self.transversal[level].get(x)
                if entry is None:
                    return g, level
                g = tuple(map(entry[1].__getitem__, g))
        return g, len(self.base)

    def contains(self, g: tuple[int, ...]) -> bool:
        return self.sift(g)[0] == self.identity

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversal)

    def _add(self, g: tuple[int, ...], first: int, last: int) -> None:
        """Make g a strong generator of levels first..last, opening a
        level at the first point g moves when last is past the chain."""
        if last == len(self.base):
            b = next(x for x, y in enumerate(g) if x != y)
            self.base.append(b)
            self.gens.append([])
            self.transversal.append({b: (self.identity, self.identity)})
            self.checked.append({})
        for level in range(first, last + 1):
            self.gens[level].append(g)
            transversal, gens = self.transversal[level], self.gens[level]
            # g on the old orbit, then every generator on the new points
            frontier, step = list(transversal), [g]
            while frontier:
                new = []
                for x in frontier:
                    u = transversal[x][0]
                    for s in step:
                        y = s[x]
                        if y not in transversal:
                            v = tuple(map(s.__getitem__, u))
                            transversal[y] = (v, _inverse(v))
                            new.append(y)
                frontier, step = new, gens

    def _complete(self, level: int) -> None:
        """Sift every unchecked Schreier generator of levels ``level``
        down to 0, the levels past ``level`` being complete already. A
        residue that does not sift becomes a strong generator of the
        levels past the one it came from, down to where it dropped out,
        and the work resumes at that deepest level."""
        while level >= 0:
            residue = self._unsifted_schreier_generator(level)
            if residue is None:
                level -= 1
                continue
            g, drop = residue
            self._add(g, level + 1, drop)
            level = drop

    def _unsifted_schreier_generator(self, level: int) -> tuple[tuple[int, ...], int] | None:
        """The first unchecked Schreier generator u_(s x)^-1 s u_x of the
        level whose residue below it is not the identity, as (residue,
        drop level); None once every pair is checked."""
        transversal, gens, checked = self.transversal[level], self.gens[level], self.checked[level]
        for x, (u, _) in transversal.items():
            for k in range(checked.get(x, 0), len(gens)):
                checked[x] = k + 1
                s = gens[k]
                h = tuple(map(transversal[s[x]][1].__getitem__, map(s.__getitem__, u)))
                if h != self.identity:
                    residue, drop = self.sift(h, level + 1)
                    if residue != self.identity:
                        return residue, drop
        return None


def orbit(generators: Sequence[Perm], point: int) -> frozenset[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


@dataclass(frozen=True)
class GenSdVerdict:
    """Outcome of the S_d-generation check.

    ``hypotheses``: named booleans: the generated group contains a
    transposition, acts transitively, the second family lies inside it,
    fixes the tail {m+1..d} pointwise, and acts transitively on the head
    {1..m}. ``conclusion_holds``: the generated group is all of S_d,
    decided independently of the hypotheses from ``group_order``, the
    product of the basic orbit lengths of its stabilizer chain.
    """

    hypotheses: dict
    hypotheses_hold: bool
    conclusion_holds: bool
    group_order: int


def gen_sd_check(
    d: int, m: int, g_gens: Sequence[Perm], h_gens: Sequence[Perm]
) -> GenSdVerdict:
    """Check the S_d-generation criterion for (d, m).

    Requires d >= 3, d/2 < m < d, gcd(m, d) = 1, d <= MAX_CLOSURE_DEGREE,
    at least one generator of g, and every generator of degree d. The
    verdict reports both whether the hypotheses hold and whether the
    generated group actually is S_d, so the criterion itself is
    testable, not assumed. Membership (of the transpositions, of h's
    generators) is decided by sifting through the stabilizer chain.
    """
    if d < 3:
        raise ValueError("gen_sd_check: need d >= 3")
    if not (d / 2 < m < d):
        raise ValueError("gen_sd_check: need d/2 < m < d")
    if math.gcd(m, d) != 1:
        raise ValueError("gen_sd_check: need gcd(m, d) = 1")
    if d > MAX_CLOSURE_DEGREE:
        raise ValueError(f"gen_sd_check: degree {d} exceeds {MAX_CLOSURE_DEGREE}")
    if not g_gens:
        raise ValueError("gen_sd_check: need at least one generator of g")
    if any(p.degree != d for p in (*g_gens, *h_gens)):
        raise ValueError(f"gen_sd_check: every generator must have degree {d}")
    chain = _StabilizerChain(d, [g.images for g in g_gens])
    group_order = chain.order()
    has_transposition = any(chain.contains(t) for t in _transpositions(d))
    # the level-0 strong generators generate the group, and an empty
    # chain is the trivial group
    transitive = bool(chain.base) and len(chain.transversal[0]) == d
    h_in_g = all(chain.contains(h.images) for h in h_gens)
    tail = range(m, d)  # 0-based tail {m+1..d} in 1-based terms
    h_fixes_tail = all(all(h(i) == i for i in tail) for h in h_gens)
    head_orbit = orbit(list(h_gens), 0)
    h_transitive_head = len(head_orbit) == m and all(x < m for x in head_orbit)
    hypotheses = {
        "g_contains_transposition": has_transposition,
        "g_transitive": transitive,
        "h_subset_of_g": h_in_g,
        "h_fixes_tail_pointwise": h_fixes_tail,
        "h_transitive_on_head": h_transitive_head,
    }
    return GenSdVerdict(
        hypotheses=hypotheses,
        hypotheses_hold=all(hypotheses.values()),
        conclusion_holds=group_order == math.factorial(d),
        group_order=group_order,
    )


def _transpositions(d: int) -> Iterator[tuple[int, ...]]:
    for i in range(d):
        for j in range(i + 1, d):
            images = list(range(d))
            images[i], images[j] = j, i
            yield tuple(images)


# ---------------------------------------------------------------------------
# the tree group and its leaf cycle-type law
# ---------------------------------------------------------------------------


def wreath_order_exceeds(d: int, n: int, cap: int) -> bool:
    """(d!)^((d^n - 1)/(d - 1)) > cap: whether the number of depth-n tree
    automorphisms is over cap, decided without forming it.

    The exponent e = 1 + d + ... + d^(n-1) is grown one level at a time
    and stops once it passes bits(cap): then (d!)^e >= 2^e > cap. Below
    that, d! is built only until it passes cap, so the last power is
    small.
    """
    if d < 2 or n < 0:
        raise ValueError("wreath_order_exceeds: need d >= 2, n >= 0")
    e, power = 0, 1
    for _ in range(n):
        e += power
        if e > cap.bit_length():
            return True
        power *= d
    fact = 1
    for j in range(2, d + 1):
        fact *= j
        if fact > cap:
            break
    return fact**e > cap


def _sd_cycle_index(d: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Z(S_d): each partition of d, descending, with 1/z, the share of
    S_d with that cycle type."""
    out = []
    stack: list[tuple[tuple[int, ...], int]] = [((), d)]
    while stack:
        parts, rest = stack.pop()
        if rest == 0:
            z = math.prod(k**c * math.factorial(c) for k, c in Counter(parts).items())
            out.append((parts, Fraction(1, z)))
            continue
        for k in range(min(rest, parts[-1] if parts else rest), 0, -1):
            stack.append((parts + (k,), rest - k))
    return out


def leaf_type_distribution(d: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution of leaf cycle types over the full tree group,
    keyed by descending cycle types in sorted order.

    The group W_n is W_(n-1) wr S_d: one W_(n-1) per subtree of the
    root, permuted by the root label. Its law is the cycle-index
    plethysm Z(S_d)[Z(W_(n-1))] (Polya, 1937): a k-cycle of the root
    label carries k subtrees round one cycle, and the product of the k
    W_(n-1) labels along it is uniform in W_(n-1), so the cycle
    contributes a W_(n-1) type with every length times k. The levels
    are built bottom up from W_0, the trivial group, with one Z(S_d).
    Frequencies are Fractions summing to 1; this is the reference law
    for Frobenius cycle-type sampling. Each call builds it afresh and
    keeps nothing; the sampler builds it once per run.
    """
    if d < 2 or n < 0:
        raise ValueError("leaf_type_distribution: need d >= 2, n >= 0")
    index = _sd_cycle_index(d)
    law: dict[tuple[int, ...], Fraction] = {(1,): Fraction(1)}
    for _ in range(n):
        lower, law = law, {}
        for parts, share in index:
            terms = {(): share}
            for k in parts:
                step: dict[tuple[int, ...], Fraction] = {}
                for t, a in terms.items():
                    for s, b in lower.items():
                        key = tuple(sorted(t + tuple(k * j for j in s), reverse=True))
                        step[key] = step.get(key, 0) + a * b
                terms = step
            for t, a in terms.items():
                law[t] = law.get(t, 0) + a
    return dict(sorted(law.items()))
