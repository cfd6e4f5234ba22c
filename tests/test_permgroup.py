import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odoni.permgroup import (
    MAX_CLOSURE_DEGREE,
    Perm,
    _StabilizerChain,
    gen_sd_check,
    leaf_type_distribution,
    wreath_order_exceeds,
)
from perm_helpers import (
    ClosureCapError,
    _closure_images,
    compose,
    cycle_type,
    from_cycles,
    identity,
    inverse,
    is_transposition,
)
from wreath_oracle import (
    ENUMERABLE_SHAPES,
    TreeAutomorphism,
    enumerate_wreath,
    enumerated_law,
    internal_nodes,
    wreath_order,
)


def closure(generators, cap=None) -> frozenset:
    """The generated subgroup as a set of Perms."""
    return frozenset(Perm(images) for images in _closure_images(generators, cap))


def cycles(d, *cyc):
    return from_cycles(d, *cyc)


def compose_tree(a: TreeAutomorphism, b: TreeAutomorphism) -> TreeAutomorphism:
    """Composition acting by b first: label_v(a o b) = label_{b(v)}(a) * label_v(b)."""
    portrait = {v: compose(a.portrait[b.node_image(v)], b.portrait[v]) for v in a.portrait}
    return TreeAutomorphism(a.d, a.n, portrait)


class TestPerm:
    def test_from_cycles(self):
        p = cycles(3, (1, 2, 3))
        assert p.images == (1, 2, 0)

    def test_composition_right_to_left(self):
        # (a * b)(x) = a(b(x)): b acts first; pinned convention
        a = cycles(3, (1, 2))
        b = cycles(3, (2, 3))
        ab = compose(a, b)
        # b sends 3 -> 2, then a sends 2 -> 1
        assert ab(2) == 0
        assert ab.images == (1, 2, 0)

    def test_inverse_and_identity(self):
        rng = random.Random(0)
        for _ in range(20):
            images = list(range(6))
            rng.shuffle(images)
            p = Perm(images)
            assert compose(p, inverse(p)) == identity(6)

    def test_cycle_type(self):
        assert cycle_type(cycles(4, (1, 2))) == (2, 1, 1)
        assert cycle_type(cycles(4, (1, 2, 3, 4))) == (4,)
        assert cycle_type(identity(4)) == (1, 1, 1, 1)

    def test_transposition_detection(self):
        assert is_transposition(cycles(5, (2, 4)))
        assert not is_transposition(cycles(5, (1, 2, 3)))

    def test_invalid_images(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))


class TestClosure:
    def test_s3_generators(self):
        group = closure([cycles(3, (1, 2)), cycles(3, (1, 2, 3))])
        assert len(group) == 6

    def test_identity_only(self):
        assert closure([identity(4)]) == frozenset({identity(4)})

    def test_s5_generators(self):
        group = closure([cycles(5, (1, 2, 3, 4, 5)), cycles(5, (1, 2))])
        assert len(group) == 120

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapError):
            closure([cycles(5, (1, 2, 3, 4, 5)), cycles(5, (1, 2))], cap=50)

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            closure([identity(9)])

    def test_closure_is_a_group(self):
        group = closure([cycles(4, (1, 2, 3)), cycles(4, (3, 4))])
        rng = random.Random(1)
        elems = sorted(group, key=lambda p: p.images)
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            assert compose(a, b) in group
            assert inverse(a) in group


class TestGenSdCheck:
    def test_d3_example(self):
        verdict = gen_sd_check(
            3, 2, [cycles(3, (1, 2, 3)), cycles(3, (2, 3))], [cycles(3, (1, 2))]
        )
        assert verdict.hypotheses_hold
        assert verdict.conclusion_holds
        assert verdict.group_order == 6

    def test_d5_example(self):
        verdict = gen_sd_check(
            5, 3, [cycles(5, (1, 2, 3, 4, 5)), cycles(5, (4, 5))], [cycles(5, (1, 2, 3))]
        )
        assert verdict.hypotheses_hold
        assert verdict.conclusion_holds
        assert verdict.group_order == 120

    def test_cyclic_group_fails_hypotheses(self):
        verdict = gen_sd_check(5, 3, [cycles(5, (1, 2, 3, 4, 5))], [])
        assert not verdict.hypotheses["g_contains_transposition"]
        assert not verdict.hypotheses_hold
        assert not verdict.conclusion_holds

    def test_h_outside_g_detected(self):
        # G = A_4-like without transpositions containing the H element?
        verdict = gen_sd_check(
            4, 3, [cycles(4, (1, 2, 3, 4)), cycles(4, (1, 2))], [cycles(4, (1, 2, 3))]
        )
        assert verdict.hypotheses["h_subset_of_g"]
        # an H generator moving the tail breaks the pointwise-fix hypothesis
        verdict2 = gen_sd_check(
            4, 3, [cycles(4, (1, 2, 3, 4)), cycles(4, (1, 2))], [cycles(4, (3, 4))]
        )
        assert not verdict2.hypotheses["h_fixes_tail_pointwise"]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_sd_check(4, 2, [], [])  # gcd(2,4) != 1
        with pytest.raises(ValueError):
            gen_sd_check(5, 2, [], [])  # m <= d/2
        with pytest.raises(ValueError):
            gen_sd_check(2, 1, [], [])  # d < 3
        with pytest.raises(ValueError, match="at least one generator"):
            gen_sd_check(5, 3, [], [])
        with pytest.raises(ValueError, match="degree 5"):
            gen_sd_check(5, 3, [cycles(5, (1, 2))], [cycles(4, (1, 2, 3))])

    def test_degree_cap_checked_first(self):
        # a degree over the cap is refused before any generator is read
        d = MAX_CLOSURE_DEGREE + 1
        with pytest.raises(ValueError, match=f"exceeds {MAX_CLOSURE_DEGREE}"):
            gen_sd_check(d, d - 1, None, None)
        assert MAX_CLOSURE_DEGREE >= 30


def reference_verdict(d, m, g_gens, h_gens) -> dict:
    """gen_sd_check's outputs from the BFS closure alone: the order,
    transpositions and h's membership read off the listed group, the
    orbits from the listed groups of g and h."""
    group = _closure_images(g_gens)
    ident = tuple(range(d))
    head = {h[0] for h in _closure_images(h_gens)} if h_gens else {0}
    return {
        "group_order": len(group),
        "g_contains_transposition": any(sum(map(int.__ne__, g, ident)) == 2 for g in group),
        "g_transitive": len({g[0] for g in group}) == d,
        "h_subset_of_g": all(h.images in group for h in h_gens),
        "h_fixes_tail_pointwise": all(h.images[m:] == ident[m:] for h in h_gens),
        "h_transitive_on_head": head == set(range(m)),
        "conclusion_holds": len(group) == math.factorial(d),
    }


def verdict_fields(verdict) -> dict:
    return {"group_order": verdict.group_order, **verdict.hypotheses,
            "conclusion_holds": verdict.conclusion_holds}


@st.composite
def perms(draw, d, moved=None):
    """A random permutation, a random cycle or the identity of degree d,
    moving only points below ``moved`` when it is given."""
    points = list(range(d if moved is None else moved))
    kind = draw(st.sampled_from(["perm", "cycle", "identity"]))
    images = list(range(d))
    if kind == "perm":
        images[: len(points)] = draw(st.permutations(points))
    elif kind == "cycle" and len(points) > 1:
        cycle = draw(st.lists(st.sampled_from(points), min_size=2, unique=True))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Perm(images)


# (d, m) with d/2 < m < d and gcd(m, d) = 1, for d = 3..8
SHAPES = [(d, m) for d in range(3, 9) for m in range(d // 2 + 1, d) if math.gcd(m, d) == 1]


class TestChainAgainstClosure:
    """The stabilizer chain against the BFS closure, the oracle it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verdict_equals_bfs(self, data):
        d, m = data.draw(st.sampled_from(SHAPES))
        g_gens = data.draw(st.lists(perms(d), min_size=1, max_size=4))
        h_gens = data.draw(st.lists(st.one_of(perms(d), perms(d, moved=m)), max_size=3))
        verdict = gen_sd_check(d, m, g_gens, h_gens)
        assert verdict_fields(verdict) == reference_verdict(d, m, g_gens, h_gens)
        assert verdict.hypotheses_hold == all(verdict.hypotheses.values())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_order_and_membership(self, data):
        # degree 2 included, which gen_sd_check refuses; every element of
        # S_d is sifted up to d = 6, a sample of it above
        d = data.draw(st.integers(2, 8))
        gens = data.draw(st.lists(perms(d), min_size=1, max_size=4))
        group = _closure_images(gens)
        chain = _StabilizerChain(d, [g.images for g in gens])
        assert chain.order() == len(group)
        if d <= 6:
            sample = [Perm(p).images for p in itertools.permutations(range(d))]
        else:
            sample = [data.draw(perms(d)).images for _ in range(20)] + list(group)[:20]
        for x in sample:
            assert chain.contains(x) == (x in group), x

    # generators of subgroups of S_8 that are not S_8, in 1-based cycles
    NAMED_D8 = {
        # A_8: (1 2 3) and a 7-cycle, both even
        "A_8": ([(1, 2, 3)], [(2, 3, 4, 5, 6, 7, 8)]),
        # PGL(2,7) on the projective line {0..6, oo} -> points 1..7, 8:
        # x+1, 3x and -1/x
        "PGL(2,7)": ([(1, 2, 3, 4, 5, 6, 7)], [(2, 4, 3, 7, 5, 6)], [(1, 8), (2, 7), (3, 4), (5, 6)]),
        # blocks {1..4}, {5..8}
        "S_4 wr S_2": ([(1, 2)], [(1, 2, 3, 4)], [(1, 5), (2, 6), (3, 7), (4, 8)]),
        "S_3 x S_5": ([(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6, 7, 8)]),
        # the symmetries of the octagon 1..8
        "D_8": ([(1, 2, 3, 4, 5, 6, 7, 8)], [(2, 8), (3, 7), (4, 6)]),
        "trivial": ([],),
    }

    @pytest.mark.parametrize(
        "name, order, transposition",
        [("A_8", 20160, False), ("PGL(2,7)", 336, False), ("S_4 wr S_2", 1152, True),
         ("S_3 x S_5", 720, True), ("D_8", 16, False), ("trivial", 1, False)],
    )
    def test_named_subgroups_of_s8(self, name, order, transposition):
        g_gens = [cycles(8, *gen) for gen in self.NAMED_D8[name]]
        h_gens = [cycles(8, (1, 2, 3, 4, 5))]
        verdict = gen_sd_check(8, 5, g_gens, h_gens)
        assert verdict.group_order == order
        assert verdict.hypotheses["g_contains_transposition"] is transposition
        assert not verdict.conclusion_holds
        assert verdict_fields(verdict) == reference_verdict(8, 5, g_gens, h_gens)

    @pytest.mark.parametrize("d, m, count", [(3, 2, 1), (5, 3, 2), (8, 5, 3)])
    def test_identity_generators_leave_the_chain_empty(self, d, m, count):
        # g_transitive is read off the chain's first orbit, and an empty
        # chain has none: the trivial group is not transitive
        g_gens = [identity(d)] * count
        assert _StabilizerChain(d, [g.images for g in g_gens]).base == []
        verdict = gen_sd_check(d, m, g_gens, [])
        assert verdict.hypotheses["g_transitive"] is False
        assert verdict_fields(verdict) == reference_verdict(d, m, g_gens, [])

    @pytest.mark.parametrize("d", [9, 10, 30])
    def test_symmetric_and_alternating_past_the_oracle(self, d):
        # A_d from (1 2 3) and an even long cycle: (1..d) for odd d, (2..d) for even d
        long_cycle = tuple(range(1, d + 1)) if d % 2 else tuple(range(2, d + 1))
        h_gens = [cycles(d, tuple(range(1, d)))]
        s_d = gen_sd_check(d, d - 1, [cycles(d, (1, 2)), cycles(d, tuple(range(1, d + 1)))], h_gens)
        a_d = gen_sd_check(d, d - 1, [cycles(d, (1, 2, 3)), cycles(d, long_cycle)], h_gens)
        assert s_d.group_order == math.factorial(d) and s_d.conclusion_holds and s_d.hypotheses_hold
        assert a_d.group_order == math.factorial(d) // 2 and not a_d.conclusion_holds
        assert not a_d.hypotheses["g_contains_transposition"]
        # the head (d-1)-cycle is odd exactly when d - 1 is even
        assert a_d.hypotheses["h_subset_of_g"] is (d % 2 == 0)


class TestWreath:
    def test_orders(self):
        assert wreath_order(2, 2) == 8
        assert wreath_order(2, 3) == 128
        assert wreath_order(3, 2) == 1296
        assert wreath_order(5, 0) == 1

    def test_exceeds_matches_exact_order(self):
        for cap in (0, 1, 2, 7, 8, 1295, 1296, 10**5, 10**40):
            for d in range(2, 12):
                for n in range(6):
                    assert wreath_order_exceeds(d, n, cap) == (wreath_order(d, n) > cap), (d, n, cap)

    def test_exceeds_never_builds_the_order(self):
        # (2!)^(2^60 - 1) and (1000!)^1 are decided on bounds alone
        assert wreath_order_exceeds(2, 60, 10**5)
        assert wreath_order_exceeds(1000, 1, 10**5)
        assert not wreath_order_exceeds(2, 4, 10**5)
        with pytest.raises(ValueError):
            wreath_order_exceeds(1, 2, 10)

    def test_enumeration_counts(self):
        assert len(enumerate_wreath(2, 2)) == 8
        assert len(enumerate_wreath(2, 3)) == 128
        assert len(enumerate_wreath(3, 2)) == 1296

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            enumerate_wreath(9, 1)

    def test_portrait_validation(self):
        with pytest.raises(ValueError):
            TreeAutomorphism(2, 2, {(): identity(2)})  # missing child labels

    def test_identity_leaf_type(self):
        assert TreeAutomorphism.identity(2, 2).leaf_cycle_type() == (1, 1, 1, 1)

    def test_root_swap_leaf_type(self):
        swap = cycles(2, (1, 2))
        ident = identity(2)
        a = TreeAutomorphism(2, 2, {(): swap, (0,): ident, (1,): ident})
        assert a.leaf_cycle_type() == (2, 2)

    def test_root_swap_one_child_swap(self):
        swap = cycles(2, (1, 2))
        ident = identity(2)
        a = TreeAutomorphism(2, 2, {(): swap, (0,): swap, (1,): ident})
        assert a.leaf_cycle_type() == (4,)
        b = TreeAutomorphism(2, 2, {(): swap, (0,): ident, (1,): swap})
        assert b.leaf_cycle_type() == (4,)

    def test_leaf_action_homomorphism(self):
        rng = random.Random(13)
        for d, n in ((2, 2), (2, 3), (3, 2)):
            pool = enumerate_wreath(d, n)
            for _ in range(25):
                a, b = rng.choice(pool), rng.choice(pool)
                composed = compose_tree(a, b)
                assert composed.leaf_action() == compose(a.leaf_action(), b.leaf_action())

    def test_internal_node_count(self):
        assert len(internal_nodes(3, 2)) == 4  # root + 3 children
        assert len(internal_nodes(2, 3)) == 7


class TestLeafTypeDistribution:
    def test_depth_two_binary(self):
        dist = leaf_type_distribution(2, 2)
        assert dist == {
            (1, 1, 1, 1): Fraction(1, 8),
            (2, 1, 1): Fraction(2, 8),
            (2, 2): Fraction(3, 8),
            (4,): Fraction(2, 8),
        }

    def test_s3_cycle_types(self):
        dist = leaf_type_distribution(3, 1)
        assert dist == {
            (1, 1, 1): Fraction(1, 6),
            (2, 1): Fraction(3, 6),
            (3,): Fraction(2, 6),
        }

    def test_sums_to_one(self):
        for d, n in ((2, 2), (2, 3), (3, 2), (4, 1)):
            assert sum(leaf_type_distribution(d, n).values()) == 1

    def test_types_partition_leaf_count(self):
        for d, n in ((2, 3), (3, 2)):
            for t in leaf_type_distribution(d, n):
                assert sum(t) == d**n

    @pytest.mark.parametrize("d, n", ENUMERABLE_SHAPES)
    def test_equals_enumeration(self, d, n):
        # the cycle-index law against counting every tree automorphism,
        # key order included
        law = leaf_type_distribution(d, n)
        oracle = enumerated_law(d, n)
        assert law == oracle
        assert list(law) == list(oracle)

    @pytest.mark.parametrize("d, n", [(9, 1), (10, 1), (3, 3), (4, 2), (2, 6)])
    def test_past_enumeration(self, d, n):
        # shapes whose group order is over the enumeration cap
        law = leaf_type_distribution(d, n)
        assert wreath_order(d, n) > 10**5
        assert sum(law.values()) == 1
        for t in law:
            assert sum(t) == d**n
            assert list(t) == sorted(t, reverse=True) and min(t) >= 1
        assert law[(1,) * d**n] == Fraction(1, wreath_order(d, n))
        assert list(law) == sorted(law)

    def test_partition_counts(self):
        # at n = 1 the group is S_d, so every partition of d occurs
        assert len(leaf_type_distribution(9, 1)) == 30
        assert len(leaf_type_distribution(10, 1)) == 42

    def test_edited_result_leaves_the_law(self):
        # every call hands out a fresh dict: editing one, also at the
        # level the plethysm recurses on, changes no later answer
        leaf_type_distribution(2, 2)[(4,)] = 0
        leaf_type_distribution(2, 1).clear()
        assert leaf_type_distribution(2, 2) == {
            (1, 1, 1, 1): Fraction(1, 8),
            (2, 1, 1): Fraction(2, 8),
            (2, 2): Fraction(3, 8),
            (4,): Fraction(2, 8),
        }
        assert leaf_type_distribution(2, 2) is not leaf_type_distribution(2, 2)
        assert leaf_type_distribution(2, 3) == enumerated_law(2, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            leaf_type_distribution(1, 2)
        with pytest.raises(ValueError):
            leaf_type_distribution(2, -1)


class TestGenerationCriterionProperty:
    def test_random_hypothesis_satisfying_pairs(self):
        # small-scale version of the acceptance property suite
        rng = random.Random(101)
        for d, m in ((3, 2), (5, 3)):
            found = 0
            while found < 25:
                g_gens = [_random_transposition(rng, d), _random_perm(rng, d)]
                h_gens = [_random_head_perm(rng, d, m) for _ in range(2)]
                verdict = gen_sd_check(d, m, g_gens, h_gens)
                if verdict.hypotheses_hold:
                    assert verdict.conclusion_holds
                    found += 1


def _random_perm(rng, d):
    images = list(range(d))
    rng.shuffle(images)
    return Perm(images)


def _random_transposition(rng, d):
    i, j = rng.sample(range(d), 2)
    images = list(range(d))
    images[i], images[j] = images[j], images[i]
    return Perm(images)


def _random_head_perm(rng, d, m):
    head = list(range(m))
    rng.shuffle(head)
    return Perm(head + list(range(m, d)))
