import ast
import builtins
import copy
import decimal
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import random
import re
import textwrap
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from congruence_oracle import exact_congruence_holds
from eisenstein_oracle import eisenstein_at
from fn_helpers import compute_fn, exhibit_at, fn_sequence_oracle, pair_val
from odoni.arith import (
    EXACT,
    INFINITY,
    CapExceededError,
    RelationError,
    decimal_str,
    is_prime,
    legendre,
    primes_between,
    val,
)
from odoni.certify import (
    BIG_VALUE_DIGEST_BITS,
    EISENSTEIN_MAX_LEVEL,
    EXHIBIT_EFFORT_CAP,
    EXHIBIT_PRIME_BOUND,
    FnValue,
    _eisenstein_levels,
    certificate_to_json_dict,
    certify,
    check_condition1,
    check_condition2,
    congruence_holds,
    deepest_depth_in_cap,
    expected_e_n,
    factor_over,
    fn_coprimality_ok,
    fn_sequence,
    nonsquare_pair,
    orbit_prime_divisors,
    search_primes,
    witness_report,
)
from odoni.construct import (
    EVEN_CASE,
    ODD_CASE_1,
    ODD_CASE_2,
    IterInstance,
    build_params,
    instance_from_json_dict,
)
from odoni.poly import critical_orbit, disc_levels
from poly_oracle import disc_resultant, f_poly, iterate
from trial_oracle import trial_factor

PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


class TestFnEven:
    def test_pinned_base_case(self, golden_even_2):
        value = compute_fn(golden_even_2, 1)
        assert value.M_n == -1
        assert value.e_n == golden_even_2.d

    def test_pinned_golden_value(self, golden_even_2):
        s, t = golden_even_2.s, golden_even_2.t
        big_d = golden_even_2.big_d
        value = compute_fn(golden_even_2, 1)
        assert value.F_n == -(s**3) - 4 * t * big_d**2 == -7547704993

    def test_pinned_value_against_disc_oracle(self, golden_even_2):
        # independent derivation of F_1 from the discriminant:
        # disc(f - x0) = s * (s^3 + 4 t D^2) / (t^2 D^2) for d = 2
        inst = golden_even_2
        f = f_poly(inst)
        disc = disc_resultant(f - inst.x0)
        s, t, big_d = inst.s, inst.t, inst.big_d
        assert disc * t**2 * big_d**2 / s == -compute_fn(inst, 1).F_n

    def test_mod_p_residue(self, golden_even_2):
        value = compute_fn(golden_even_2, 1)
        assert value.F_n % 5 == 2
        assert legendre(value.F_n, 5) == -1
        assert legendre(-value.F_n, 5) == -1
        # the scaled value s*F_1 is a square mod p, which is exactly why
        # F_1 itself cannot be one (s is a non-residue)
        assert legendre(golden_even_2.s * value.F_n, 5) == 1


class TestFnOdd:
    def test_pinned_base_case(self, golden_odd_3):
        value = compute_fn(golden_odd_3, 1)
        assert value.M_n == 1
        assert value.e_n == 3

    def test_pinned_golden_value(self, golden_odd_3):
        value = compute_fn(golden_odd_3, 1)
        assert value.F_n == 4 * 5**4 - 27 * 7**4 == -62327
        assert math.gcd(value.F_n, 2 * 3 * 1 * 5 * 7) == 1

    def test_case1_congruence(self, golden_odd_3):
        value = compute_fn(golden_odd_3, 1)
        assert (value.F_n + 27 * 7**4) % 5 == 0
        assert congruence_holds(golden_odd_3, value)


class TestDualPath:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9])
    def test_golden_depth_three(self, d):
        inst = build_params(d)
        values = list(fn_sequence(inst, 3))
        assert [v.n for v in values] == [1, 2, 3]
        for v, exact in zip(values, fn_sequence_oracle(inst, 3)):
            assert math.gcd(exact.F_n, inst.bad_product) == 1
            assert fn_coprimality_ok(inst, v.F_n)
            assert v.e_n == expected_e_n(inst, v.n)
            assert congruence_holds(inst, v)
            assert nonsquare_pair(inst, v.F_n) == (True, True)

    def test_bit_growth_roughly_geometric(self, golden_even_4, golden_odd_5):
        for inst in (golden_even_4, golden_odd_5):
            bits = [v.bits for v in fn_sequence(inst, 3)]
            for small, big in zip(bits, bits[1:]):
                assert inst.d * small / 2 < big < inst.d * small * 2

    def test_broken_instance_raises(self, golden_even_2):
        # b inconsistent with (s, t) breaks the recursion/direct agreement
        broken = replace(golden_even_2, b=golden_even_2.b + 1)
        with pytest.raises(RelationError, match="dual_path"):
            list(fn_sequence(broken, 1))

    @pytest.mark.parametrize("d", [2, 4])
    def test_negative_big_d_even_case(self, golden_even_2, golden_even_4, d):
        # s = -3, t = 1 gives D = s^(d-1) + t^(d-1) < 0, so den(b) = -tD:
        # (d t D)^(d^n) still equals (d den(b))^(d^n) since d^n is even,
        # and the dual path must hold as it does for D > 0
        golden = golden_even_2 if d == 2 else golden_even_4
        big_d = (-3) ** (d - 1) + 1
        inst = replace(golden, s=-3, t=1, x0=Fraction(-3), b=Fraction((-3) ** d, big_d))
        assert inst.big_d < 0 and inst.b.denominator == -inst.t * inst.big_d
        assert not [r for r in inst.violated_relations() if r.startswith(("b ==", "gcd"))]
        values = list(fn_sequence(inst, 4))
        assert [v.n for v in values] == [1, 2, 3, 4]


class TestLazySequence:
    def test_peak_memory(self):
        # M_6 (3.1 Mbit) is never formed: the sequence stops at depth 5,
        # and the peak is set by depth 5's own values
        inst = build_params(6)
        tracemalloc.start()
        try:
            for _ in fn_sequence(inst, 5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_bit_cap_ends_the_run(self, golden_even_2, monkeypatch):
        # with F_3 one bit over the cap, depth 2 is the deepest one, and
        # a deeper run is refused before the conditions or any F_n are
        # computed: a resource cap (exit 2), not a failed relation
        certify_module = importlib.import_module("odoni.certify")
        bits = [v.bits for v in fn_sequence(golden_even_2, 3)]
        monkeypatch.setattr(certify_module, "FN_BIT_CAP", bits[2] - 1)
        assert deepest_depth_in_cap(golden_even_2) == 2
        cert = certify(golden_even_2, 2, exhibit_effort=1)
        assert cert.verdict_pass
        assert [r.fn.n for r in cert.records] == [1, 2]

        def unbuilt(*args, **kwargs):
            raise AssertionError("computed past the cap")

        for name in ("check_condition1", "check_condition2", "fn_sequence"):
            monkeypatch.setattr(certify_module, name, unbuilt)
        with pytest.raises(CapExceededError, match="depth 8 is past depth 2"):
            certify(golden_even_2, 8, exhibit_effort=1)


class TestDepthCap:
    """deepest_depth_in_cap bounds bits(F_n) on bit lengths alone."""

    DEEPEST = {2: 19, 3: 13, 4: 8, 5: 8, 6: 6, 7: 7, 8: 5, 9: 6, 10: 4}

    def test_deepest_depth_per_degree(self):
        # the depths at which certify stopped when it measured the F_n it
        # had built: one depth more was over FN_BIT_CAP
        assert {d: deepest_depth_in_cap(build_params(d)) for d in range(2, 11)} == self.DEEPEST

    @pytest.mark.parametrize("d", range(2, 11))
    def test_bound_brackets_each_fn(self, d, monkeypatch):
        # a cap one bit below bits(F_n) puts depth n past the deepest
        # one, and a cap of 1.25 bits(F_n) keeps it in: the bound is at
        # least bits(F_n) and at most 1.25 times it, at every depth whose
        # F_n has at most 2^18 bits
        certify_module = importlib.import_module("odoni.certify")
        inst = build_params(d)
        checked = 0
        for value in fn_sequence(inst, self.DEEPEST[d]):
            if value.bits > 2**18:
                break
            monkeypatch.setattr(certify_module, "FN_BIT_CAP", value.bits - 1)
            assert deepest_depth_in_cap(inst) < value.n
            monkeypatch.setattr(certify_module, "FN_BIT_CAP", value.bits * 5 // 4)
            assert deepest_depth_in_cap(inst) >= value.n
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize(
        "changes",
        [{"d": -1}, {"d": 0}, {"d": 1}, {"d": -3}, {"d": 8, "m": 8}, {"m": -3}, {"t": 0},
         {"s": 0, "t": -1}, {"parity_case": "x"}, {"d": 10**6, "m": 10**6 - 1}],
        ids=lambda changes: ",".join(f"{k}={v}" for k, v in changes.items()),
    )
    def test_unvalidated_instances(self, golden_even_2, golden_odd_3, changes):
        # params files parse without validation; the bound takes them as
        # they are, raises on none, and walks at most 24 depths
        for inst in (golden_even_2, golden_odd_3):
            assert 0 <= deepest_depth_in_cap(replace(inst, **changes)) <= 24

    @staticmethod
    def _bracket_misses(namespace, d):
        """The depths of build_params(d), up to F_n of 2^18 bits, at which
        the ``deepest_depth_in_cap`` of ``namespace``, which reads its cap
        from there, fails the bracket of test_bound_brackets_each_fn."""
        inst = build_params(d)
        deepest = namespace["deepest_depth_in_cap"]
        misses = []
        for value in fn_sequence(inst, TestDepthCap.DEEPEST[d]):
            if value.bits > 2**18:
                break
            namespace["FN_BIT_CAP"] = value.bits - 1
            below = deepest(inst) < value.n
            namespace["FN_BIT_CAP"] = value.bits * 5 // 4
            if not (below and deepest(inst) >= value.n):
                misses.append(value.n)
        return misses

    @pytest.mark.parametrize("mutant", [None, "carry", "s_k"])
    def test_bound_without_a_term_misses(self, mutant):
        # negative control: on a copy of the modules the bracket holds at
        # d = 5 as the code stands, and misses once the orbit step drops
        # its (d-m)*(... + 1) carry (the bound falls below bits(F_1)) or
        # the bound no longer subtracts bits(s^k) (it passes 1.25 bits(F_1))
        namespace = dict(vars(importlib.import_module("odoni.certify")))
        if mutant == "carry":
            poly_namespace = dict(vars(importlib.import_module("odoni.poly")))
            source = inspect.getsource(poly_namespace["orbit_bits_step"])
            term = " + (d - m) * (max(w_bits, s_bits - b_den + 1 + b_num) + 1)"
            assert source.count(term) == 1
            exec(compile(source.replace(term, ""), "<mutant>", "exec"), poly_namespace)
            namespace["orbit_bits_step"] = poly_namespace["orbit_bits_step"]
        source = inspect.getsource(namespace["deepest_depth_in_cap"])
        term = "max(w_bits - sk_bits, "
        assert source.count(term) == 1
        if mutant == "s_k":
            source = source.replace(term, "max(w_bits, ")
        exec(compile(source, "<mutant>", "exec"), namespace)
        misses = self._bracket_misses(namespace, 5)
        assert misses if mutant else misses == []


def _congruence_modulus(inst):
    """The modulus whose multiples leave M_n's congruence unchanged."""
    if inst.parity_case == EVEN_CASE:
        return abs(inst.d * inst.t * inst.big_d)
    if inst.parity_case == ODD_CASE_1:
        return abs(inst.s)
    return abs(inst.d * inst.t * inst.t)


class TestResidueCongruence:
    """congruence_holds on residues against the exact-integer oracle."""

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_exact_oracle(self, d):
        inst = build_params(d)
        depth = {2: 9, 3: 7}.get(d, 4 if d <= 8 else 3)
        flipped = 0
        for decimal_value, value in zip(fn_sequence(inst, depth), fn_sequence_oracle(inst, depth)):
            assert congruence_holds(inst, decimal_value) is exact_congruence_holds(inst, value) is True
            k = _congruence_modulus(inst)
            perturbed = [
                replace(value, M_n=value.M_n + 1),
                replace(value, M_n=value.M_n - 1),
                replace(value, M_n=value.M_n + 7 * k),
                replace(value, M_n=value.M_n - k),
            ]
            if inst.parity_case == ODD_CASE_1:
                perturbed.append(replace(value, F_n=value.F_n + 1))
            for other in perturbed:
                verdict = congruence_holds(inst, other)
                assert verdict == exact_congruence_holds(inst, other), (d, value.n)
                flipped += not verdict
            assert congruence_holds(inst, perturbed[2]) and congruence_holds(inst, perturbed[3])
        assert flipped > 0

    @pytest.mark.parametrize("case", [EVEN_CASE, ODD_CASE_1, ODD_CASE_2])
    def test_random_signs_and_moduli(self, case):
        # negative s, t or D, moduli of 1, and values that are not F_n
        # of any instance: the two routes agree on all of them
        rng = random.Random(case)
        seen = set()
        for _ in range(300):
            d = rng.choice([2, 4, 6] if case == EVEN_CASE else [3, 5, 7, 9])
            inst = SimpleNamespace(
                d=d,
                s=rng.choice([-1, 1, rng.randint(-30, 30) or 2]),
                t=rng.choice([-1, 1, rng.randint(-9, 9) or 3]),
                big_d=rng.choice([-1, 1, rng.randint(-40, 40) or 5]),
                p1=rng.choice([2, 3, 5, 7, 11, -3, 1]),
                parity_case=case,
            )
            n = rng.randint(1, 4)
            value = FnValue(
                n=n,
                e_n=rng.randint(1, 40),
                M_n=rng.randint(-(10**30), 10**30),
                F_n=rng.randint(-(10**30), 10**30),
            )
            verdict = congruence_holds(inst, value)
            assert verdict == exact_congruence_holds(inst, value), (inst, value)
            seen.add(verdict)
        assert seen == {True, False}

    def test_unit_modulus_odd_case_1(self, golden_odd_3):
        # s = +-1 makes the square-term test read mod 1
        for s in (1, -1):
            inst = replace(golden_odd_3, s=s)
            for value in (compute_fn(golden_odd_3, 2), FnValue(2, 5, 12345, -678)):
                assert congruence_holds(inst, value) == exact_congruence_holds(inst, value)


class TestClosedFormEn:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_even_closed_form(self, d):
        inst = build_params(d)
        for n in range(1, 7):
            e_n = expected_e_n(inst, n)
            if d == 2:
                assert e_n == n + 1
            else:
                assert e_n == ((d - 1) ** (n + 1) - 1) // (d - 2)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_odd_closed_form(self, d):
        inst = build_params(d)
        for n in range(1, 7):
            e_n = expected_e_n(inst, n)
            if d == 3:
                assert e_n == 2 * n + 1
            else:
                assert e_n == ((d - 2) ** (n + 1) + (d - 2) ** n - 2) // (d - 3)

    def test_recursion_matches_summation(self, golden_even_4, golden_odd_5):
        for inst in (golden_even_4, golden_odd_5):
            step = (inst.d - 1) if inst.parity_case == "even" else (inst.d - 2)
            shift = 1 if inst.parity_case == "even" else 2
            e = inst.d
            for n in range(1, 6):
                assert e == expected_e_n(inst, n)
                e = step * e + shift


class TestConditions:
    def test_condition1_golden(self, golden_even_2, golden_odd_3):
        report = check_condition1(golden_even_2)
        assert report.ok and report.v_p1_b == 2 and report.v_p1_x0 == 1
        report = check_condition1(golden_odd_3)
        assert report.ok and report.v_p1_b == 2 and report.v_p1_x0 == 1

    def test_condition1_tampered(self, golden_even_2):
        tampered = replace(golden_even_2, x0=golden_even_2.x0 * golden_even_2.p1)
        report = check_condition1(tampered)
        assert not report.ok
        assert report.v_p1_x0 == 2

    def test_condition2_even(self, golden_even_4):
        report = check_condition2(golden_even_4, 3)
        assert not report.skipped
        assert report.ok
        assert report.tower is not None

    def test_condition2_odd(self, golden_odd_5):
        inst = golden_odd_5
        assert val(inst.b, inst.p2) == -2
        assert val(inst.x0, inst.p2) == -1
        report = check_condition2(inst, 3)
        assert report.ok
        # gcd(m, v(x0/b)) = gcd(3, 1) = 1
        assert any("gcd" in c.name and c.ok for c in report.checks)

    def test_condition2_skipped_low_degree(self, golden_odd_3):
        report = check_condition2(golden_odd_3, 3)
        assert report.skipped and report.ok


class TestConditionTwoByName:
    """Condition (2) is decided in check_condition2 alone, each
    hypothesis under its recorded name. golden_odd_5 has d = 5, m = 3,
    p1 = 13, p2 = 7, x0 = 13/7 and b = 169/49, so v(b) = -2 and
    v(x0) = -1 at p2."""

    # each tampering breaks exactly one of 2a-2d and keeps condition (1)
    ONE_FAILURE = {
        # p2 = 2 divides d - m = 2; v(b) = -2, v(x0) = -1 at 2
        "condition2a.p2_coprime_d_minus_m": dict(
            t=2, x0=Fraction(13, 2), b=Fraction(169, 4), p2=2
        ),
        # v(b) = 2 is not below min(v(x0), 0) = 0
        "condition2b.v_p2_b_below_min": dict(x0=Fraction(91), b=Fraction(8281)),
        # v(b) = -3 is odd
        "condition2c.d_minus_m_divides_v_p2_b": dict(b=Fraction(169, 343)),
        # v(x0/b) = 1 + 2 = 3 = m
        "condition2d.gcd_m_v_p2_x0_over_b": dict(x0=Fraction(91)),
    }

    @pytest.mark.parametrize("name", sorted(ONE_FAILURE))
    def test_named_failure(self, golden_odd_5, name):
        inst = replace(golden_odd_5, **self.ONE_FAILURE[name])
        assert check_condition1(inst).ok
        report = check_condition2(inst, 3)
        assert [c.name for c in report.checks if not c.ok] == [name]
        assert not report.ok and report.tower is None
        cert = certify(inst, 3, exhibit_effort=1)
        assert cert.first_failure == name and not cert.verdict_pass
        assert cert.records == []

    def test_zero_b(self, golden_odd_5):
        inst = replace(golden_odd_5, b=Fraction(0))
        report = check_condition2(inst, 3)
        assert [(c.name, c.ok, c.detail) for c in report.checks if not c.ok] == [
            ("condition2b.v_p2_b_below_min", False, "b or x0 is 0")
        ]
        assert report.tower is None
        # condition (1) fails first: v_p1(0) is infinite
        cert = certify(inst, 3, exhibit_effort=1)
        assert cert.first_failure == "condition1.v_p1_b"
        assert "condition2b.v_p2_b_below_min" in [c.name for c in cert.checks if not c.ok]

    @pytest.mark.parametrize(
        "m, b, x0, detail",
        [
            # 2a-2d hold (d - m = 6, v(b) = -6, v(x0) = -1), but m^2 v_2 = -1
            (-1, Fraction(169, 7**6), Fraction(13, 7), "not a positive integer"),
            # 2a-2d hold (gcd(0, 1) = 1), but the slope recursion divides by m
            (0, Fraction(169, 7**5), Fraction(13, 7**4), "undefined at m = 0"),
        ],
    )
    def test_tower_probe_decides_its_own_relation(self, golden_odd_5, m, b, x0, detail):
        inst = replace(golden_odd_5, m=m, b=b, x0=x0)
        report = check_condition2(inst, 3)
        assert [c.name for c in report.checks if not c.ok] == ["condition2.ramification_tower"]
        assert detail in report.checks[-1].detail and report.tower is None
        cert = certify(inst, 3, exhibit_effort=1)
        assert cert.first_failure == "condition2.ramification_tower"


class TestNonsquare:
    def test_golden_values(self, golden_even_2, golden_odd_3):
        for inst in (golden_even_2, golden_odd_3):
            assert nonsquare_pair(inst, compute_fn(inst, 1).F_n) == (True, True)

    def test_square_value_fails(self, golden_even_2):
        # 4 is a square mod 5
        assert nonsquare_pair(golden_even_2, 4) == (False, False)

    def test_parity_dispatch_guards(self, golden_even_2, golden_odd_3):
        # the closed forms of the wrong parity case disagree with the
        # critical orbit, so the dual-path check rejects the instance
        assert compute_fn(golden_even_2, 1).M_n == -1
        assert compute_fn(golden_odd_3, 1).M_n == 1
        with pytest.raises(RelationError, match="dual_path"):
            list(fn_sequence(replace(golden_odd_3, parity_case="even"), 1))
        with pytest.raises(RelationError, match="dual_path"):
            list(fn_sequence(replace(golden_even_2, parity_case="odd-case-1"), 1))


class TestExhibit:
    def test_pair_valuation(self):
        # v_q(N / D) read off an unreduced pair
        assert pair_val((12 * 5, 18 * 5), 3) == val(Fraction(12, 18), 3) == -1
        assert pair_val((-(7**5), 7**2 * 3), 7) == 3
        assert pair_val((10, 4), 5) == 1
        assert pair_val((0, 9), 3) is INFINITY

    def test_golden_even_witness(self, golden_even_2):
        report = exhibit_at(golden_even_2, 1)
        assert report.found
        assert report.q == 107  # -F_1 = 107 * 6949 * 10151
        assert report.valuation_in_fn == 1
        assert report.lower_levels_clean
        assert report.disc_valuation_odd
        assert report.evidence == "deterministic"
        assert golden_even_2.bad_product % report.q != 0

    def test_golden_odd_witness(self, golden_odd_3):
        report = exhibit_at(golden_odd_3, 1)
        assert report.found
        assert report.q == 62327  # F_1 itself is prime
        assert report.disc_valuation_odd

    def test_tiny_effort_no_witness(self, golden_odd_3):
        report = exhibit_at(golden_odd_3, 1, effort_bound=2)
        # 62327 survives trial division by 2 but is classified as a
        # prime cofactor, so the witness is still found
        assert report.found and report.q == 62327

    def test_rule_on_lower_levels(self, golden_even_2, golden_odd_3):
        # 11 divides neither bad product; with F_1, F_2 given, q = 11 and
        # v_11(disc_2) = d v_11(F_1) + v_11(F_2). These F's are not the
        # instances' own, so the orbit's prime search does not apply to
        # them: F_2 is factored by the trial-division oracle
        for inst, fns, clean, odd in [
            (golden_odd_3, [13, 11], True, True),  # 0 + 1
            (golden_odd_3, [11, 11], False, False),  # 3 + 1
            (golden_odd_3, [121, 11 * 13], False, True),  # 6 + 1
            (golden_even_2, [11, 11], False, True),  # 2 + 1
            (golden_odd_3, [0, 11], False, False),  # disc_1 = disc_2 = 0
        ]:
            assert inst.bad_product % 11 != 0
            report = witness_report(inst, trial_factor(fns[1], 10**6), fns[:1])
            assert report.found and report.q == 11
            assert (report.lower_levels_clean, report.disc_valuation_odd) == (clean, odd)
            # the same rule on Decimal F's, as certify holds them
            factors, cofactor = trial_factor(fns[1], 10**6)
            lower = [Decimal(f) for f in fns[:1]]
            assert witness_report(inst, (factors, Decimal(cofactor)), lower) == report


def _fns_up_to(inst, bits):
    """F_1, F_2, ... of the instance while F_n has at most ``bits`` bits,
    as (Decimal from fn_sequence, int from the oracle) pairs."""
    pairs = zip(fn_sequence(inst, 40), fn_sequence_oracle(inst, 40))
    return [(value.F_n, exact.F_n)
            for value, exact in itertools.takewhile(lambda pair: pair[1].bits <= bits, pairs)]


class TestOrbitPrimeDivisors:
    """The witness search's factorization, from the one list of primes
    the critical orbit finds modulo groups of 16 primes, against trial
    division of F_n (the oracle in trial_oracle.py) at every depth, keys
    in the same order, on the Decimal F_n of fn_sequence and on the int
    F_n of the oracle."""

    BOUNDS = [2, 3, 97, 10**4, 10**6]

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_trial_division(self, d):
        inst = build_params(d)
        fns = _fns_up_to(inst, 300_000)
        for bound in self.BOUNDS:
            primes = orbit_prime_divisors(inst, bound, len(fns))
            assert primes == sorted(set(primes)), bound
            # each listed prime divides G_n = F_n s^(d-m) v at some depth
            shift = inst.x0 ** (d - inst.m)
            g_ns = [f_n * inst.s ** (d - inst.m) * shift.denominator for _, f_n in fns]
            assert all(any(g_n % p == 0 for g_n in g_ns) for p in primes), bound
            for n, (f_dec, f_n) in enumerate(fns, 1):
                got, want = factor_over(f_n, primes, bound), trial_factor(f_n, bound)
                assert got == want, (n, bound)
                assert list(got[0]) == list(want[0]), (n, bound)
                got_dec = factor_over(f_dec, primes, bound)
                assert got_dec == got and list(got_dec[0]) == list(got[0]), (n, bound)

    def test_benchmark_inputs_are_the_built_instances(self):
        # the perfbench inputs are build_params(d), so the test above
        # covers them
        paths = sorted(PERFBENCH_INPUTS.glob("params_d*.json"))
        assert paths
        for path in paths:
            inst = instance_from_json_dict(json.loads(path.read_text(encoding="utf-8")))
            assert inst == build_params(inst.d), path.name

    def test_primes_of_s_and_v(self, golden_even_2):
        # G_n = F_n s v, so the orbit lists every prime of s = 3 * 19 and
        # v = 2 * 599, and factor_over tests each on F_n itself at every
        # depth: F_n is prime to them, a multiple of F_n by them is not
        inst = golden_even_2
        assert (inst.s, inst.x0.denominator) == (57, 1198)
        extra = 2**3 * 3 * 19**2 * 599
        fns = _fns_up_to(inst, 50_000)
        for bound in (97, 10**6):
            primes = orbit_prime_divisors(inst, bound, len(fns))
            assert {q for q in (2, 3, 19, 599) if q <= bound} <= set(primes)
            for n, (f_dec, f_n) in enumerate(fns, 1):
                assert factor_over(f_n, primes, bound) == trial_factor(f_n, bound)
                got = factor_over(f_n * extra, primes, bound)
                assert got == trial_factor(f_n * extra, bound), (n, bound)
                assert got[0][19] == 2
                with decimal.localcontext(EXACT):
                    scaled = f_dec * extra
                assert factor_over(scaled, primes, bound) == got, (n, bound)

    def test_zero_and_negative_bound(self, golden_odd_3):
        with pytest.raises(ValueError):
            factor_over(0, [2, 3], 10)
        with pytest.raises(ValueError, match="negative"):
            orbit_prime_divisors(golden_odd_3, -1, 1)
        for bound in (0, 1):
            assert orbit_prime_divisors(golden_odd_3, bound, 5) == []

    def test_one_gcd_per_group_whatever_the_depth(self, monkeypatch):
        # each group of 16 primes ends its pass over every depth with one
        # gcd, so a run to depth 12 makes as many as a run to depth 1
        inst = build_params(2)
        calls = []
        gcd = math.gcd

        def counting_gcd(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting_gcd)
        counts = {}
        for depth in (1, 12):
            calls.clear()
            orbit_prime_divisors(inst, 10**6, depth)
            counts[depth] = len(calls)
        assert counts[1] == counts[12] == -(-sum(1 for _ in primes_between(2, 10**6)) // 16)

    def test_no_residue_list_across_depths(self):
        # a cold search to depth 12 holds no list of per-group residues
        # (one of the 4907 groups' 320-bit residues alone is about
        # 0.37 MB) and no list of its primes (78498 of them)
        tracemalloc.start()
        try:
            orbit_prime_divisors(build_params(2), 10**6, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_search_holds_one_sieve_window(self):
        # the search streams its primes from one 32 kB window whatever
        # the bound: an array of the 348513 primes below 5 * 10^6 alone
        # takes 2.8 MB
        tracemalloc.start()
        try:
            orbit_prime_divisors(build_params(2), 5 * 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak

    def test_small_bound_builds_no_sieve(self, golden_even_2, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieve to {hi} built")

        monkeypatch.setattr(importlib.import_module("odoni.certify"), "primes_between", no_sieve)
        cert = certify(golden_even_2, 4, exhibit_effort=1)
        assert cert.verdict_pass
        assert not any(r.exhibited_q.found for r in cert.records)

    def test_cap_refused_before_allocating(self, golden_even_2):
        # one past the cap raises before the 5 MB sieve is built
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="cap"):
                certify(golden_even_2, 1, exhibit_effort=EXHIBIT_EFFORT_CAP + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6, peak


@functools.lru_cache(maxsize=None)
def _trial_primes(d):
    """The primes <= 10^6 of F_n for build_params(d), by trial division,
    at each depth while F_n has at most 300 kbit."""
    fns = _fns_up_to(build_params(d), 300_000)
    return [{p for p in trial_factor(f_n, 10**6)[0] if p <= 10**6} for _, f_n in fns]


class TestSearchPrimes:
    """The character filter of the witness search: on an odd-case
    instance only the primes p with (d(d-2) | p) = 1, and those of
    2 d (d-2) s t, are stepped, and they still cover every prime of F_n
    that trial division (trial_oracle.py) finds."""

    ODD = [3, 5, 7, 9]

    @staticmethod
    def _by_legendre(inst, bound, symbol):
        # Euler's criterion at every odd prime away from 2 d (d-2) s t
        disc = inst.d * (inst.d - 2)
        always = 2 * disc * inst.s * inst.t
        return [
            p for p in primes_between(2, bound)
            if always % p == 0 or pow(disc, (p - 1) // 2, p) == symbol % p
        ]

    @pytest.mark.parametrize("d", ODD)
    def test_covers_trial_division(self, d):
        kept = set(search_primes(build_params(d), 10**6))
        depths = _trial_primes(d)
        assert len(depths) >= 4
        for n, primes in enumerate(depths, 1):
            assert primes <= kept, (n, sorted(primes - kept))

    @pytest.mark.parametrize("d", ODD)
    def test_flipped_character_misses_a_prime(self, d):
        # negative control: stepping the primes with (d(d-2) | p) = -1
        # instead drops primes that trial division finds
        flipped = set(self._by_legendre(build_params(d), 10**6, -1))
        assert any(primes - flipped for primes in _trial_primes(d))

    @pytest.mark.parametrize("d", ODD)
    def test_keeps_about_half(self, d):
        kept = list(search_primes(build_params(d), 10**6))
        assert len(kept) <= 0.55 * len(list(primes_between(2, 10**6)))

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 25])
    def test_equals_legendre_definition(self, d):
        # the per-class filter against Euler's criterion at every prime,
        # at bounds that meet every class and at bounds that do not
        inst = build_params(d)
        for bound in (2, 3, 5, 7, 97, 1000, 10**5):
            got = list(search_primes(inst, bound))
            assert got == self._by_legendre(inst, bound, 1), bound

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_even_degree_keeps_every_prime(self, d):
        stream = search_primes(build_params(d), 10**6)
        assert stream.gi_code is primes_between.__code__  # the sieve itself, no extra layer
        assert list(stream) == list(primes_between(2, 10**6))

    def test_broken_odd_instance_keeps_every_prime(self, golden_odd_3):
        broken = replace(golden_odd_3, b=golden_odd_3.b * 4)
        assert broken.violated_relations() == ["b == x0^2"]
        assert list(search_primes(broken, 10**5)) == list(primes_between(2, 10**5))


class TestDiscValuationRule:
    # the witness check's rule against disc_levels, the oracle: at every
    # prime q outside the bad set, v_q(disc(f^n - x0)) equals
    # sum over k <= n of d^(n-k) v_q(F_k), and the exhibited witness's
    # two booleans match the ones read off the discriminant pairs
    PRIMES = [q for q in range(2, 2001) if is_prime(q)]

    @pytest.mark.parametrize("d, depth", [(2, 7), (3, 5), (4, 4), (5, 3), (6, 3), (9, 2)])
    def test_matches_disc_levels(self, d, depth, monkeypatch):
        inst = build_params(d)
        fns = [value.F_n for value in fn_sequence_oracle(inst, depth)]
        fns_dec = [value.F_n for value in fn_sequence(inst, depth)]
        monkeypatch.setattr(importlib.import_module("odoni.poly"), "DEFAULT_BIT_BUDGET", 2**30)
        pairs = list(itertools.islice(disc_levels(inst), depth))
        primes = [q for q in self.PRIMES if inst.bad_product % q]
        for n in range(1, depth + 1):
            report = exhibit_at(inst, n, fns=fns_dec[:n])
            assert exhibit_at(inst, n, fns=fns[:n]) == report
            for q in primes + ([report.q] if report.found else []):
                rule = sum(d ** (n - k) * val(f_k, q) for k, f_k in enumerate(fns[:n], 1))
                assert pair_val(pairs[n - 1], q) == rule, (n, q)
            if report.found:
                lower = [pair_val(pair, report.q) for pair in pairs[: n - 1]]
                top = pair_val(pairs[n - 1], report.q)
                assert report.lower_levels_clean == all(v == 0 for v in lower)
                assert report.disc_valuation_odd == (top > 0 and top % 2 == 1)


class TestCertify:
    def test_golden_even_passes(self, golden_even_2):
        cert = certify(golden_even_2, 3)
        assert cert.verdict_pass
        assert cert.first_failure is None
        assert cert.hypothesis_set == "conditions-1-3"
        assert [r.fn.n for r in cert.records] == [1, 2, 3]
        assert all(r.eisenstein_ok for r in cert.records)
        assert cert.evidence_level == "deterministic"

    def test_golden_odd_passes(self, golden_odd_3):
        cert = certify(golden_odd_3, 3)
        assert cert.verdict_pass
        assert cert.condition2.skipped

    def test_golden_d4_uses_full_hypotheses(self, golden_even_4):
        cert = certify(golden_even_4, 2)
        assert cert.verdict_pass
        assert cert.hypothesis_set == "conditions-1-2-3"
        assert not cert.condition2.skipped

    def test_tampered_b_fails_at_condition2(self, golden_even_4):
        tampered = replace(golden_even_4, b=golden_even_4.b * golden_even_4.p2)
        cert = certify(tampered, 1)
        assert not cert.verdict_pass
        assert cert.first_failure.startswith("condition2")
        assert cert.records == []

    def test_tampered_x0_fails_at_condition1(self, golden_even_2):
        tampered = replace(golden_even_2, x0=golden_even_2.x0 * golden_even_2.p1)
        cert = certify(tampered, 1)
        assert not cert.verdict_pass
        assert cert.first_failure == "condition1.v_p1_x0"

    def test_nonsquare_failure_instance(self):
        # handmade d=3 instance passing everything except the nonsquare
        # test: 3 is a square mod 13, so F_n mod p1 lands in the squares
        inst = IterInstance(
            d=3,
            m=1,
            s=13,
            t=7,
            x0=Fraction(13, 7),
            b=Fraction(169, 49),
            p=13,
            p1=13,
            p2=7,
            parity_case="odd-case-1",
        )
        assert not inst.violated_relations()
        cert = certify(inst, 1)
        assert not cert.verdict_pass
        assert cert.first_failure == "depth1.Fn_nonsquare_mod_p"
        assert cert.records[0].nonsquare_f is False

    def test_depth_validation(self, golden_even_2):
        # an input outside the contract, not a failed relation
        with pytest.raises(ValueError, match="depth must be >= 1"):
            certify(golden_even_2, 0)

    def test_json_digest_for_huge_values(self, golden_odd_9):
        cert = certify(golden_odd_9, 3, exhibit_effort=1)
        data = certificate_to_json_dict(cert)
        f3 = data["records"][2]["F_n"]
        assert isinstance(f3, dict) and f3["bits"] > 4096 and "sha256_of_decimal" in f3
        full = certificate_to_json_dict(cert, full_values=True)
        assert isinstance(full["records"][2]["F_n"], str)

    def test_eisenstein_recorded_up_to_three(self, golden_even_2):
        cert = certify(golden_even_2, 3)
        assert [r.eisenstein_ok for r in cert.records] == [True, True, True]


def _q_oracle_levels(inst, depth):
    f = f_poly(inst)
    return {
        n: eisenstein_at(iterate(f, n) - inst.x0, inst.p1)
        for n in range(1, min(depth, EISENSTEIN_MAX_LEVEL) + 1)
    }


def _p1_unit(q, p1):
    """q with every factor p1 removed."""
    return q / Fraction(p1) ** val(q, p1)


class TestEisensteinLevels:
    """The Z/p1^2 check against the Eisenstein test over Q."""

    @pytest.mark.parametrize("d", range(2, 10))
    def test_matches_q_oracle(self, d):
        inst = build_params(d)
        levels = _eisenstein_levels(inst, 3)
        assert levels == _q_oracle_levels(inst, 3)
        assert levels == {1: True, 2: True, 3: True}

    def test_stops_at_depth(self, golden_odd_3):
        assert _eisenstein_levels(golden_odd_3, 2) == {1: True, 2: True}
        assert set(_eisenstein_levels(golden_odd_3, 7)) == {1, 2, 3}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_x0_divisible_by_p1_squared(self, d):
        inst = build_params(d)
        shifted = replace(inst, x0=inst.x0 * inst.p1)
        levels = _eisenstein_levels(shifted, 3)
        assert levels == _q_oracle_levels(shifted, 3)
        assert not any(levels.values())

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_b_a_p1_unit(self, d):
        inst = build_params(d)
        unit = replace(inst, b=_p1_unit(inst.b, inst.p1))
        levels = _eisenstein_levels(unit, 3)
        assert levels == _q_oracle_levels(unit, 3)
        assert not any(levels.values())

    @pytest.mark.parametrize("field", ["b", "x0"])
    def test_p1_denominator_rejected(self, golden_even_2, field):
        inst = golden_even_2
        bad = replace(inst, **{field: _p1_unit(getattr(inst, field), inst.p1) / inst.p1})
        with pytest.raises(ValueError, match="integral"):
            _eisenstein_levels(bad, 3)
        with pytest.raises(ValueError):
            _q_oracle_levels(bad, 3)


    def test_random_instances(self):
        # any 0 <= m < d, p1 in {2, 3, 5, 7}, b and x0 with denominators
        # prime to p1 and small p1-valuations, so every outcome occurs
        rng = random.Random(61)
        outcomes = set()
        for _ in range(120):
            d = rng.randint(2, 5)
            p1 = rng.choice([2, 3, 5, 7])

            def p1_integral():
                den = rng.choice([x for x in range(1, 12) if x % p1])
                return Fraction(rng.randint(-20, 20) * p1 ** rng.randint(0, 2), den)

            inst = SimpleNamespace(d=d, m=rng.randrange(d), b=p1_integral(), x0=p1_integral(), p1=p1)
            depth = 3 if d <= 3 else 2
            levels = _eisenstein_levels(inst, depth)
            assert levels == _q_oracle_levels(inst, depth), inst
            outcomes.update(levels.values())
        assert outcomes == {True, False}

    def test_p1_denominator_message(self, golden_even_2):
        bad = replace(golden_even_2, b=Fraction(2, 9))
        with pytest.raises(ValueError, match=r"^eisenstein check: 2/9 is not 3-integral$"):
            _eisenstein_levels(bad, 3)


class TestTamperedPrimes:
    def test_composite_witness_prime_fails_cleanly(self, golden_even_2):
        tampered = replace(golden_even_2, p1=9)
        cert = certify(tampered, 1)
        assert not cert.verdict_pass
        assert cert.first_failure == "instance.witness_primes_prime"


class TestFailedRelationIsRecorded:
    def test_dual_path_mismatch_is_the_last_check(self, golden_even_2, monkeypatch):
        # a mismatch at depth 2 ends the run as a failed check named by
        # the depth and relation, with the whole message as its detail
        module = importlib.import_module("odoni.certify")
        orbit = module.critical_orbit

        def perturbed(inst, number):
            for n, (w, scale) in enumerate(orbit(inst, number), 1):
                yield (w + 1 if n == 2 else w), scale

        monkeypatch.setattr(module, "critical_orbit", perturbed)
        cert = certify(golden_even_2, 3, exhibit_effort=1)
        assert not cert.verdict_pass and cert.first_failure == "depth2.dual_path_Fn"
        last = cert.checks[-1]
        assert (last.name, last.ok) == ("depth2.dual_path_Fn", False)
        assert last.detail == "depth2.dual_path_Fn: recursion and direct evaluation disagree"
        assert [r.fn.n for r in cert.records] == [1]


class TestBeyondAcceptanceEnvelope:
    def test_depth_past_eisenstein_window(self, golden_even_2):
        cert = certify(golden_even_2, 5)
        assert cert.verdict_pass
        assert [r.eisenstein_ok for r in cert.records] == [True, True, True, None, None]

    @pytest.mark.parametrize("d", [11, 12])
    def test_larger_degrees(self, d):
        cert = certify(build_params(d), 2, exhibit_effort=1)
        assert cert.verdict_pass


class TestGoldenCertificates:
    # sha256 of the canonical JSON (sorted keys, no whitespace) of each
    # depth-3 golden certificate; any change to a value, a note or the
    # schema shows here
    HASHES = {
        2: "b833cbc3647a1f57cd91b386172d97b2e140361430325993e093cd03c61df1c0",
        3: "bbbcfdeb92d1ea7f70d9eb6e529be922e2c12f0569ca2b480e473baafc7d5e9f",
        4: "15e3d9bf1f291c537cfa449ec5ed34191749e5b72d706226daf0ff17cb8fd1f2",
        5: "959fbb607a486dc6e3b6494a8e9adbb59f047410aa8dddd686afa792cd38616d",
        6: "bfa5d2b65dada06fb5db7f1f1a898b7f00ef47c26a59f496706fc84ec5a1b148",
        9: "291b2b95c7146eda7db705f3a20acc72bf3a1c9509bcd9756b03f4286c938749",
    }

    # deep certificates at --exhibit-effort 1, which searches no prime:
    # digests of F_n and M_n far above the 2048-bit cut-off of
    # decimal_str's direct route, and dual-path checks on Mbit-sized
    # values. At (3, 9) a 189-bit F_3 is classified prime as its own
    # cofactor, so that certificate's evidence is probabilistic
    DEEP_HASHES = {
        (2, 13): "d45ae375320e86d91f3fe539deaf8f4f6e901e5aab8b653b5726dfc2ed3c027f",
        (3, 9): "e60d992e93947a6f31a75977aeaf18f7a4b66c8da9f572dc6a94a8865aa71917",
        # the even d >= 4 branch of fn_sequence and of the congruence
        (6, 5): "c6ed9fa544bc9ad4c8072a46d7b02095499c3763901512c8a8939b18e4e9cfdc",
    }

    @staticmethod
    def _hash(cert):
        text = json.dumps(certificate_to_json_dict(cert), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("d", sorted(HASHES))
    def test_json_hash(self, d):
        assert self._hash(certify(build_params(d), 3)) == self.HASHES[d]

    @pytest.mark.parametrize("d, depth", sorted(DEEP_HASHES))
    def test_deep_json_hash(self, d, depth):
        cert = certify(build_params(d), depth, exhibit_effort=1)
        assert self._hash(cert) == self.DEEP_HASHES[d, depth]

    # certificates at the default effort: the witness search factors F_n
    # of up to 88 kbit (d = 2) and 141 kbit (d = 3) and decides each
    # witness's discriminant fields from F_1..F_n; the other rows are
    # the remaining certify-witness instances and pipeline-d10's
    # certificate (degree 10, depth 3)
    WITNESS_HASHES = {
        (2, 12): "300dc36665932ac6bd58f79a924a5ad1ff19c9cd64550e72d24b736c709a6b37",
        (3, 9): "816ac5a1e5c715162ff07565e4944747be2fca3e4c32084c7dcf110e045d9dd5",
        (5, 5): "6ff35803992e22e56203683b0c6df2de6f5f52b04c4ec306c7c2d17eade7e460",
        (7, 4): "d6af21336a6fc86e80da5957b83f9fcc16cd6b65e7a454698dae3cf448375a91",
        (9, 4): "efc25624c88c535131da01209eb9ae0621effbf44a1a9355e7b2aa3fe804e6ac",
        (10, 3): "a19795564f6475ee8adf76fc3fc540b4d1574d3f9d2fc33b7cca5463725019b6",
    }

    @pytest.mark.parametrize("d, depth", sorted(WITNESS_HASHES))
    def test_witness_json_hash(self, d, depth):
        cert = certify(build_params(d), depth)
        assert self._hash(cert) == self.WITNESS_HASHES[d, depth]

    def test_deep_witness_json_hash(self):
        # the default-effort certificate of params_d2.json at depth 16,
        # recorded when trial division of F_n found the witnesses: the
        # orbit's prime search on F_n of up to 1.4 Mbit gives the same
        # witnesses, and none at depths 15 and 16
        path = PERFBENCH_INPUTS / "params_d2.json"
        inst = instance_from_json_dict(json.loads(path.read_text(encoding="utf-8")))
        cert = certify(inst, 16)
        assert self._hash(cert) == (
            "6a0a7c20f3a5af7c9f544e413b832af6b364893fcc209f06f4ed1a3ca361e109"
        )


class TestExhibitBitBudget:
    def test_oversized_discriminant_never_flips_verdict(self, golden_even_2):
        # the witness check reads F_1..F_n and builds no discriminant, so
        # no level is too large for it to decide
        cert = certify(golden_even_2, 4)
        plain = certify(golden_even_2, 4, exhibit_effort=1)
        assert cert.verdict_pass
        assert [r.fn.n for r in cert.records] == [r.fn.n for r in plain.records] == [1, 2, 3, 4]
        witness = cert.records[2].exhibited_q
        assert witness.found and witness.q == 1439
        assert witness.lower_levels_clean is True
        assert witness.disc_valuation_odd is True

    @pytest.mark.parametrize("effort, deepest", [(1, 0), (10**6, 8)])
    def test_no_discriminant_pass(self, golden_even_2, monkeypatch, effort, deepest):
        # certify steps the critical orbit through its own binding (for
        # fn_sequence) only; poly's binding is the one disc_levels reads,
        # and no depth, with or without a witness candidate, reaches it
        poly_module = importlib.import_module("odoni.poly")
        steps = 0

        def counting(inst):
            nonlocal steps
            for step in critical_orbit(inst):
                steps += 1
                yield step

        monkeypatch.setattr(poly_module, "critical_orbit", counting)
        cert = certify(golden_even_2, 8, exhibit_effort=effort)
        found = [r.fn.n for r in cert.records if r.exhibited_q.found]
        assert cert.verdict_pass
        assert max(found, default=0) == deepest
        assert steps == 0


class TestDecimalClosedForms:
    """fn_sequence holds M_n and F_n as exact Decimals; the int closed
    forms in fn_helpers.py are its oracle."""

    # every degree build_params covers, d = 8 and 10 with a large D
    DEPTHS = {2: 6, 3: 6, 4: 6, 5: 6, 6: 4, 7: 4, 8: 4, 9: 4, 10: 3}

    @pytest.mark.parametrize("d", sorted(DEPTHS))
    def test_equals_int_oracle(self, d):
        inst = build_params(d)
        depth = self.DEPTHS[d]
        pairs = list(zip(fn_sequence(inst, depth), fn_sequence_oracle(inst, depth)))
        assert len(pairs) == depth
        for value, exact in pairs:
            assert type(value.M_n) is type(value.F_n) is Decimal
            assert (value.n, value.e_n, value.bits) == (exact.n, exact.e_n, exact.bits)
            assert str(value.M_n) == decimal_str(exact.M_n), (d, value.n)
            assert str(value.F_n) == decimal_str(exact.F_n), (d, value.n)

    @staticmethod
    def _mutants():
        """fn_sequence with one exponent of its closed forms raised by
        one: every ** in the function, the set-up before the depth loop
        included, one at a time."""
        module = importlib.import_module("odoni.certify")
        tree = ast.parse(textwrap.dedent(inspect.getsource(module.fn_sequence)))

        def powers(root):
            return [node for node in ast.walk(root)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]

        for i in range(len(powers(tree))):
            mutated = copy.deepcopy(tree)
            node = powers(mutated)[i]
            node.right = ast.BinOp(node.right, ast.Add(), ast.Constant(1))
            ast.fix_missing_locations(mutated)
            namespace = dict(vars(module))
            exec(compile(mutated, "<mutant>", "exec"), namespace)
            yield ast.unparse(node), namespace["fn_sequence"]

    def test_mutated_exponent_breaks_dual_path(self, golden_even_4, golden_odd_5):
        # d = 4 and 5: no base of the closed forms is +-1, so raising any
        # exponent changes the value (at d = 2 or 3, (d-1) or (d-2) is 1)
        mutants = list(self._mutants())
        assert len(mutants) >= 18
        for text, mutant in mutants:
            failures = []
            for inst in (golden_even_4, golden_odd_5):
                try:
                    list(mutant(inst, 3))
                except RelationError as exc:
                    failures.append(str(exc))
            assert failures, text
            assert all(re.match(r"depth[1-3]\.dual_path_Fn: ", f) for f in failures), text


def _growing_exponents(source: str) -> list[str]:
    """Every ** inside the body of a for loop of the given source whose
    exponent is built from anything but the names d and m, int
    constants and arithmetic, unparsed, in source order."""
    tree = ast.parse(source)
    in_loop = {id(node) for loop in ast.walk(tree) if isinstance(loop, ast.For)
               for part in loop.body for node in ast.walk(part)}
    allowed = (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop, ast.Load)

    def fixed(leaf):
        if isinstance(leaf, ast.Name):
            return leaf.id in ("d", "m")
        if isinstance(leaf, ast.Constant):
            return type(leaf.value) is int
        return isinstance(leaf, allowed)

    found = [node for node in ast.walk(tree)
             if id(node) in in_loop and isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and not all(fixed(leaf) for leaf in ast.walk(node.right))]
    return [ast.unparse(node) for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_fn_sequence_steps_its_powers():
    # a power rebuilt from scratch at every depth, such as d^(d^n), has
    # an exponent that grows with n; fn_sequence steps those factors
    source = textwrap.dedent(inspect.getsource(fn_sequence))
    assert _growing_exponents(source) == []


def test_growing_exponent_is_found():
    # negative control: exponents reading the depth, a call or an
    # attribute are named inside a loop; d, m and int constants pass,
    # and nothing outside a loop is read
    source = (
        "def rebuild(d, m, depth, inst):\n"
        "    head = d ** (d**depth)\n"
        "    for n in range(1, depth + 1):\n"
        "        tail = d ** (d**n) * head ** (2 * (d - 1)) * head**m\n"
        "        unit = (d - 1) ** len(inst) * head ** -m * head ** inst.m * head ** 0.5\n"
        "    return tail, unit\n"
    )
    assert _growing_exponents(source) == [
        "d ** d ** n",
        "d ** n",
        "(d - 1) ** len(inst)",
        "head ** inst.m",
        "head ** 0.5",
    ]


def _context_state(ctx):
    return (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp,
            dict(ctx.traps), dict(ctx.flags))


class TestCallerContext:
    """Every Decimal operation runs in arith.EXACT, entered inside each
    step; nothing reads or changes the caller's decimal context."""

    CASES = [(2, 12, EXHIBIT_PRIME_BOUND), (3, 9, 1), (6, 4, 10**4)]

    @staticmethod
    def _json(cert):
        return json.dumps(certificate_to_json_dict(cert), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("d, depth, effort", CASES)
    def test_certificate_under_a_five_digit_context(self, d, depth, effort):
        inst = build_params(d)
        plain = self._json(certify(inst, depth, exhibit_effort=effort))
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.rounding = decimal.ROUND_FLOOR
            ctx.traps[decimal.Inexact] = True
            before = _context_state(ctx)
            text = self._json(certify(inst, depth, exhibit_effort=effort))
            assert _context_state(ctx) == before
            assert decimal.getcontext() is ctx
        assert text == plain

    def test_stepping_while_the_caller_computes(self, golden_odd_3):
        inst = golden_odd_3
        values, orbit = fn_sequence(inst, 7), critical_orbit(inst, Decimal)
        exact_orbit = critical_orbit(inst)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            alone = list(itertools.accumulate(range(7), lambda x, _: x * 7 / 3, initial=Decimal(1) / 3))
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            third = Decimal(1) / 3
            for k, exact in enumerate(fn_sequence_oracle(inst, 7), 1):
                # rounded work of the caller's own between steps
                third = third * 7 / 3
                value, (w, scale), (w_int, scale_int) = next(values), next(orbit), next(exact_orbit)
                assert decimal.getcontext() is ctx and ctx.prec == 5
                assert third == alone[k]
                assert str(value.F_n) == decimal_str(exact.F_n)
                assert str(value.M_n) == decimal_str(exact.M_n)
                assert str(w) == decimal_str(w_int) and str(scale) == decimal_str(scale_int)


class TestNoConversions:
    """certify holds its large values in Decimal from start to JSON: it
    never calls arith.decimal_str, and no int over 4096 bits appears."""

    def test_no_decimal_str(self, monkeypatch):
        calls = []
        original = importlib.import_module("odoni.arith").decimal_str

        def recording(n):
            calls.append(abs(n).bit_length())
            return original(n)

        for name in ("odoni.arith", "odoni.construct", "odoni.cli", "odoni.certify"):
            monkeypatch.setattr(importlib.import_module(name), "decimal_str", recording,
                                raising=False)
        cert = certify(build_params(3), 9)
        assert calls == []
        # the JSON form's only decimal_str calls are the instance echo's
        data = certificate_to_json_dict(cert)
        assert calls and max(calls) < 64
        assert data["records"][-1]["F_n"]["bits"] > 10**5

    @pytest.mark.parametrize("d, depth", [(2, 12), (5, 5), (6, 5)])
    def test_no_large_conversion(self, monkeypatch, d, depth):
        # certify and its JSON form, where F_n has 88, 27 and 894 kbit
        # and every closed-form factor is over 4096 bits at d = 5 and 6,
        # with two records: the size of every int(...) and Decimal(...)
        # made at the names odoni's modules call, and of every int that
        # arithmetic on the instance's integer fields produces (the only
        # source of an int that could be mixed into a Decimal product)
        sizes = []

        class Recording(type):
            def __call__(cls, value=0, *args):
                if isinstance(value, (builtins.int, Decimal)):
                    sizes.append(_exact_bits(value))
                return cls.real(value, *args)

            def __instancecheck__(cls, obj):
                return isinstance(obj, cls.real)

        class RecordingInt(builtins.int, metaclass=Recording):
            real = builtins.int

        class RecordingDecimal(Decimal, metaclass=Recording):
            real = Decimal

        src = Path(importlib.import_module("odoni.arith").__file__).parent
        for path in src.glob("*.py"):
            module = importlib.import_module(f"odoni.{path.stem}".replace(".__init__", ""))
            monkeypatch.setattr(module, "int", RecordingInt, raising=False)
            if "Decimal" in vars(module):
                monkeypatch.setattr(module, "Decimal", RecordingDecimal)

        tracked = _tracked_int_type(sizes.append)
        inst = build_params(d)
        fields = {name: tracked(getattr(inst, name)) for name in ("d", "m", "s", "t", "p", "p1", "p2")}
        cert = certify(replace(inst, **fields), depth, exhibit_effort=10**4)
        data = certificate_to_json_dict(cert)
        assert cert.verdict_pass and data["records"][-1]["F_n"]["bits"] > 20_000
        assert all(type(r.fn.F_n) is type(r.fn.M_n) is Decimal for r in cert.records)
        assert len(sizes) > 1000 and max(sizes) <= BIG_VALUE_DIGEST_BITS, max(sizes)


def _exact_bits(value):
    """Bit length of an int or integral Decimal; a Decimal of more than
    1300 digits (over 4300 bits) is not converted to measure it."""
    if isinstance(value, Decimal):
        if value and value.adjusted() >= 1300:
            return math.inf
        value = int(value)
    return value.bit_length()


def _tracked_int_type(record):
    """An int subclass whose arithmetic records the bit length of each
    result, which keeps the subclass."""

    class TrackedInt(builtins.int):
        pass

    def wrap(method):
        def op(self, *args):
            result = method(self, *args)
            if type(result) is builtins.int:  # not NotImplemented
                record(result.bit_length())
                result = TrackedInt(result)
            return result

        return op

    for name in ("add", "sub", "mul", "floordiv", "mod", "pow", "lshift"):
        for prefix in ("__", "__r"):
            dunder = f"{prefix}{name}__"
            setattr(TrackedInt, dunder, wrap(getattr(builtins.int, dunder)))
    for dunder in ("__neg__", "__abs__"):
        setattr(TrackedInt, dunder, wrap(getattr(builtins.int, dunder)))
    return TrackedInt
