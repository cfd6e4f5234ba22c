import dataclasses
import hashlib
import importlib
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from factor_oracle import BadReductionError, PolyModP, factor_cycle_type, factor_tree
from odoni.arith import CapExceededError, val
from odoni.construct import build_params
from odoni.frobenius import (
    DEFAULT_SCAN_CAP,
    PRIMES_BELOW_SCAN_CAP,
    TV_TOLERANCE,
    _bad_reduction_product,
    chebotarev_distance,
    pipeline_level,
    report_to_json_dict,
    sample_distribution,
    tv_is_enforced,
)
from odoni.permgroup import leaf_type_distribution
from odoni.poly import disc_levels
from odoni.polymod import cycle_type_mod_p, iterates_minus_x0
from poly_oracle import f_poly, iterate
from sieve_oracle import primes_up_to


def reduced_target(inst, n, p):
    """f^n - x0 mod p."""
    return PolyModP.from_rational_coeffs((iterate(f_poly(inst), n) - inst.x0).coeffs, p)


def list_cycle_type(target):
    """The sampler's cycle type of a PolyModP, through the list form."""
    return cycle_type_mod_p(list(target.coeffs), target.p)


class TestFactorTree:
    def test_structure_on_good_primes(self, golden_even_2):
        seen_types = set()
        good = 0
        for p in primes_up_to(1600):
            if p < 1009 or good >= 40:
                continue
            try:
                tree = factor_tree(golden_even_2, 2, p)
            except BadReductionError:
                continue
            good += 1
            assert tree.level_degrees(0) == (1,)
            assert sum(tree.level_degrees(1)) == 2
            assert sum(tree.level_degrees(2)) == 4
            seen_types.add(tree.leaf_cycle_type())
            assert list_cycle_type(reduced_target(golden_even_2, 2, p)) == tree.leaf_cycle_type()
            for node in tree.levels[2]:
                assert node.parent is not None
        assert good >= 40
        # over 40 primes every type should be realizable and several seen
        assert seen_types <= set(leaf_type_distribution(2, 2))
        assert len(seen_types) >= 3

    def test_irreducible_level_one(self, golden_even_2):
        # some good prime has f - x0 irreducible: leaf type (2,) at level 1
        found = False
        for p in primes_up_to(1400):
            if p < 1009:
                continue
            try:
                tree = factor_tree(golden_even_2, 1, p)
            except BadReductionError:
                continue
            assert list_cycle_type(reduced_target(golden_even_2, 1, p)) == tree.leaf_cycle_type()
            if tree.leaf_cycle_type() == (2,):
                found = True
                break
        assert found

    def test_split_then_partial_merge(self, golden_even_2):
        # a split-then-partial-merge witness: level degrees (1, 1) then (2, 1, 1)
        found = False
        for p in primes_up_to(200):
            try:
                tree = factor_tree(golden_even_2, 2, p)
            except BadReductionError:
                continue
            assert list_cycle_type(reduced_target(golden_even_2, 2, p)) == tree.leaf_cycle_type()
            if tree.level_degrees(1) == (1, 1) and tree.level_degrees(2) == (2, 1, 1):
                found = True
                break
        assert found

    def test_bad_reduction_rejected(self, golden_even_2):
        # the witness primes themselves always divide some discriminant
        for p in (3, 5):
            with pytest.raises(BadReductionError):
                factor_tree(golden_even_2, 2, p)
        with pytest.raises(BadReductionError):
            factor_tree(golden_even_2, 1, 2)

    def test_odd_instance_tree(self, golden_odd_3):
        good = 0
        for p in primes_up_to(1200):
            if p < 1009 or good >= 10:
                continue
            try:
                tree = factor_tree(golden_odd_3, 2, p)
            except BadReductionError:
                continue
            good += 1
            assert sum(tree.level_degrees(2)) == 9
            assert list_cycle_type(reduced_target(golden_odd_3, 2, p)) == tree.leaf_cycle_type()
            for k in (1, 2):
                for j, parent in enumerate(tree.levels[k - 1]):
                    kids = sum(n.degree for n in tree.levels[k] if n.parent == j)
                    assert kids == 3 * parent.degree
        assert good >= 10


class TestSampleDistribution:
    def test_small_sample_realizable(self, golden_even_2):
        result = sample_distribution(golden_even_2, 2, 300)
        assert result.used == 300
        assert sum(result.counts.values()) == 300
        assert set(result.counts) <= set(leaf_type_distribution(2, 2))
        tv = chebotarev_distance(result.frequencies(), result.law)
        assert tv < Fraction(15, 100)

    def test_seed_determinism(self, golden_odd_3):
        # no seed any more: two runs over the same window agree exactly
        a = sample_distribution(golden_odd_3, 1, 200)
        b = sample_distribution(golden_odd_3, 1, 200)
        assert a.counts == b.counts
        assert not hasattr(a, "seed")

    def test_scan_crosses_a_block(self, golden_odd_3):
        # the sampler sieves 65536-wide windows; 5000 primes above 5 * 10^6
        # run into the second one. Against one loop over the oracle's primes
        start, count = 5 * 10**6, 5000
        result = sample_distribution(golden_odd_3, 1, count, start=start)
        bad = _bad_reduction_product(golden_odd_3, 1)
        target = next(iterates_minus_x0(golden_odd_3))
        counts, used, skipped = {}, 0, 0
        for p in primes_up_to(start + 2 * 65536):
            if p <= start:
                continue
            if used == count:
                break
            if bad % p == 0:
                skipped += 1
                continue
            ctype = cycle_type_mod_p(target, p)
            counts[ctype] = counts.get(ctype, 0) + 1
            used, last = used + 1, p
        assert last > start + 65536  # the last prime used is in the second window
        assert (result.used, result.skipped, result.counts) == (used, skipped, counts)

    def test_reference_must_be_enumerable(self, golden_odd_9):
        with pytest.raises(ValueError, match="enumerable"):
            sample_distribution(golden_odd_9, 1, 10)

    def test_scan_cap(self, golden_even_2, monkeypatch):
        # (1000, 2000] holds 135 primes: too few for 200, found by scanning
        frobenius_module = importlib.import_module("odoni.frobenius")
        monkeypatch.setattr(frobenius_module, "DEFAULT_SCAN_CAP", 2000)
        with pytest.raises(CapExceededError, match="good primes below scan cap 2000"):
            sample_distribution(golden_even_2, 2, 200)

    def test_primes_below_scan_cap(self):
        assert len(primes_up_to(DEFAULT_SCAN_CAP)) == PRIMES_BELOW_SCAN_CAP

    def test_request_past_the_window_refused_before_sampling(self, golden_even_2, monkeypatch):
        frobenius_module = importlib.import_module("odoni.frobenius")

        def unbuilt(*args, **kwargs):
            raise AssertionError("computed for a request no window can fill")

        for name in ("leaf_type_distribution", "_bad_reduction_product", "iterates_minus_x0", "primes_between"):
            monkeypatch.setattr(frobenius_module, name, unbuilt)
        with pytest.raises(CapExceededError, match=f"{PRIMES_BELOW_SCAN_CAP + 1} primes requested"):
            sample_distribution(golden_even_2, 2, PRIMES_BELOW_SCAN_CAP + 1)


class TestCycleTypeAgainstOracle:
    @pytest.mark.parametrize("d, n", [(2, 2), (3, 1), (2, 3), (8, 1), (2, 4)])
    def test_every_good_prime_in_window(self, d, n):
        # the sampler's distinct-degree type equals the complete
        # factorization's type at every good prime in a fixed window
        inst = build_params(d)
        bad = _bad_reduction_product(inst, n)
        coeffs = (iterate(f_poly(inst), n) - inst.x0).coeffs
        scale = math.lcm(*(c.denominator for c in coeffs))
        cleared = [int(c * scale) for c in coeffs]
        good = 0
        for p in primes_up_to(2500):
            if p < 1000 or bad % p == 0:
                continue
            # f^n - x0 with its denominators cleared, left unreduced: a
            # unit multiple of the sampler's input H_n
            assert cycle_type_mod_p(cleared, p) == factor_cycle_type(reduced_target(inst, n, p)), p
            good += 1
        assert good >= 150


class TestGoodReductionProduct:
    @pytest.mark.parametrize("d, n", [(2, 2), (3, 1), (2, 3), (8, 1), (3, 2)])
    def test_matches_per_level_valuations(self, d, n):
        # one product against the definition: p odd, p away from den(b)
        # and den(x0), and v_p(disc(f^k - x0)) = 0 at every level k <= n
        inst = build_params(d)
        bad = _bad_reduction_product(inst, n)
        discs = [Fraction(num, den) for num, den in itertools.islice(disc_levels(inst), n)]
        for p in primes_up_to(6000):
            good = (
                p != 2
                and inst.b.denominator % p != 0
                and inst.x0.denominator % p != 0
                and all(val(disc, p) == 0 for disc in discs)
            )
            assert (bad % p != 0) == good, p

    def test_zero_discriminant_makes_every_prime_bad(self):
        inst = SimpleNamespace(d=2, m=1, b=Fraction(2), x0=Fraction(-1))
        assert _bad_reduction_product(inst, 2) == 0


class TestChebotarevDistance:
    def test_exact_reference_is_zero(self):
        exact = leaf_type_distribution(2, 2)
        assert chebotarev_distance(exact, exact) == 0

    def test_single_type_bounded_by_one(self):
        assert chebotarev_distance({(4,): Fraction(1)}, leaf_type_distribution(2, 2)) <= 1

    def test_enforcement_rule(self):
        assert tv_is_enforced(2, 2, 2000)
        assert tv_is_enforced(3, 1, 2500)
        assert not tv_is_enforced(2, 2, 500)
        assert not tv_is_enforced(3, 2, 5000)


class TestSampleResult:
    def test_report_fields(self, golden_odd_3):
        sample = sample_distribution(golden_odd_3, 1, 300)
        assert sample.used == 300
        assert sample.law == leaf_type_distribution(3, 1)
        assert report_to_json_dict(sample)["realizable_ok"] is True
        assert sample.tv == chebotarev_distance(sample.frequencies(), sample.law)
        assert sample.enforced is False  # below 2000 primes
        assert sample.within_tolerance is None

    def test_enforced_shape_within_tolerance(self, golden_even_2):
        sample = sample_distribution(golden_even_2, 2, 2000)
        assert sample.enforced is True
        assert sample.tv <= TV_TOLERANCE
        assert sample.within_tolerance is True


class TestAdmission:
    def test_level_selection(self):
        assert pipeline_level(2, 3, 2000) == 2
        assert pipeline_level(3, 3, 2000) == 2
        assert pipeline_level(4, 3, 2000) == 1
        assert pipeline_level(7, 2, 2000) == 1
        assert pipeline_level(9, 2, 2000) is None
        assert pipeline_level(2, 0, 2000) is None

    @pytest.mark.parametrize("d, depth", [(2, 3), (4, 3), (9, 2), (2, 0)])
    def test_prime_count_capped_at_every_level(self, d, depth):
        # whether or not a level is left to sample, the count is refused
        with pytest.raises(CapExceededError, match=f"{PRIMES_BELOW_SCAN_CAP + 1} primes requested"):
            pipeline_level(d, depth, PRIMES_BELOW_SCAN_CAP + 1)

    def test_count_refused_before_the_relations(self, golden_even_2):
        # an instance that breaks a structural relation still meets the
        # cap first: the cap is an argument's, not the instance's
        broken = dataclasses.replace(golden_even_2, p1=4)
        assert broken.violated_relations()
        with pytest.raises(CapExceededError, match="primes requested"):
            sample_distribution(broken, 1, PRIMES_BELOW_SCAN_CAP + 1)


class TestConvergence:
    def test_tv_shrinks_with_more_primes(self, golden_even_2):
        a = sample_distribution(golden_even_2, 2, 250)
        b = sample_distribution(golden_even_2, 2, 4000)
        tv_a = chebotarev_distance(a.frequencies(), a.law)
        tv_b = chebotarev_distance(b.frequencies(), b.law)
        assert tv_b < tv_a + Fraction(2, 100)


class TestGoldenFrobenius:
    # sha256 of the canonical JSON (sorted keys, no whitespace) of the
    # frobenius report for build_params(d) at (d, level, primes, start):
    # counts, frequencies, the exact law and its key order all show here
    HASHES = {
        (2, 2, 500, 1000): "ed66c2c1f232c149380618668b5447f159bec5af6b1850bdd38946c6d39ffbe3",
        (2, 3, 200, 1000): "d06326c3ed4181e3b860b4fd2a3e537fdc0712b18b75d44e537b8ae68febb151",
        (8, 1, 100, 1000): "c36b0e27b480e0b3c4159c6d03ac0662e0351383e93792b9c6041f9f295e02f1",
        (3, 1, 300, 5000): "10f8b46bfa98d5374ea7860bab16f79480c64d69e6c3b4fdd60267b80d34b05e",
        # degree 16, and p above 10^6 (20-bit exponents)
        (2, 4, 200, 1000): "f0575e92f365054aac09f0a4d5c96422ebcc4ccf56438189fab742d65f9fedc8",
        (2, 2, 300, 10**6): "bd8d9800f30e7e349cc7ff681e2c4707dc3942472d8cd0c9986d15fa6caf1d4c",
    }

    @pytest.mark.parametrize("d, level, primes, start", sorted(HASHES))
    def test_json_hash(self, d, level, primes, start):
        sample = sample_distribution(build_params(d), level, primes, start=start)
        text = json.dumps(report_to_json_dict(sample), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.HASHES[d, level, primes, start]
