import hashlib
import importlib
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from congruence_oracle import exact_congruence_holds
from eisenstein_oracle import eisenstein_at
from fn_helpers import compute_fn, pair_val
from odoni.arith import INFINITY, CapExceededError, is_prime, legendre, val
from odoni.certify import (
    EISENSTEIN_MAX_LEVEL,
    EXHIBIT_EFFORT_CAP,
    CertifyError,
    FnValue,
    _eisenstein_levels,
    certificate_to_json_dict,
    certify,
    check_condition1,
    check_condition2,
    congruence_holds,
    exhibit_odd_prime_q,
    expected_e_n,
    factor_over,
    fn_sequence,
    nonsquare_pair,
    orbit_prime_divisors,
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
        for v in values:
            assert math.gcd(v.F_n, inst.bad_product) == 1
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
        with pytest.raises(CertifyError, match="dual_path"):
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
        # the first depth over the cap fails the run and is not recorded;
        # the sequence is not stepped past it
        certify_module = importlib.import_module("odoni.certify")
        bits = [v.bits for v in fn_sequence(golden_even_2, 3)]
        monkeypatch.setattr(certify_module, "FN_BIT_CAP", bits[1])
        cert = certify(golden_even_2, 8, exhibit=False)
        assert not cert.verdict_pass
        assert cert.first_failure == "depth3.bit_cap"
        assert [r.n for r in cert.records] == [1, 2]


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
        for value in fn_sequence(inst, depth):
            assert congruence_holds(inst, value) is exact_congruence_holds(inst, value) is True
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
        with pytest.raises(CertifyError, match="dual_path"):
            compute_fn(replace(golden_odd_3, parity_case="even"), 1)
        with pytest.raises(CertifyError, match="dual_path"):
            compute_fn(replace(golden_even_2, parity_case="odd-case-1"), 1)


class TestExhibit:
    def test_pair_valuation(self):
        # v_q(N / D) read off an unreduced pair
        assert pair_val((12 * 5, 18 * 5), 3) == val(Fraction(12, 18), 3) == -1
        assert pair_val((-(7**5), 7**2 * 3), 7) == 3
        assert pair_val((10, 4), 5) == 1
        assert pair_val((0, 9), 3) is INFINITY

    def test_golden_even_witness(self, golden_even_2):
        report = exhibit_odd_prime_q(golden_even_2, 1)
        assert report.found
        assert report.q == 107  # -F_1 = 107 * 6949 * 10151
        assert report.valuation_in_fn == 1
        assert report.lower_levels_clean
        assert report.disc_valuation_odd
        assert report.evidence == "deterministic"
        assert golden_even_2.bad_product % report.q != 0

    def test_golden_odd_witness(self, golden_odd_3):
        report = exhibit_odd_prime_q(golden_odd_3, 1)
        assert report.found
        assert report.q == 62327  # F_1 itself is prime
        assert report.disc_valuation_odd

    def test_tiny_effort_no_witness(self, golden_odd_3):
        report = exhibit_odd_prime_q(golden_odd_3, 1, effort_bound=2)
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


def _fns_up_to(inst, bits):
    """F_1, F_2, ... of the instance while F_n has at most ``bits`` bits."""
    return list(itertools.takewhile(lambda f: abs(f).bit_length() <= bits,
                                    (value.F_n for value in fn_sequence(inst, 40))))


class TestOrbitPrimeDivisors:
    """The witness search's factorization, from the primes the critical
    orbit finds modulo groups of 16 primes, against trial division of
    F_n (the oracle in trial_oracle.py), keys in the same order."""

    BOUNDS = [2, 3, 97, 10**4, 10**6]

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_trial_division(self, d):
        inst = build_params(d)
        fns = _fns_up_to(inst, 300_000)
        for bound in self.BOUNDS:
            divisors = orbit_prime_divisors(inst, bound)
            for n, f_n in enumerate(fns, 1):
                got, want = factor_over(f_n, next(divisors), bound), trial_factor(f_n, bound)
                assert got == want, (n, bound)
                assert list(got[0]) == list(want[0]), (n, bound)

    def test_benchmark_inputs_are_the_built_instances(self):
        # the perfbench inputs are build_params(d), so the test above
        # covers them
        paths = sorted(PERFBENCH_INPUTS.glob("params_d*.json"))
        assert paths
        for path in paths:
            inst = instance_from_json_dict(json.loads(path.read_text(encoding="utf-8")))
            assert inst == build_params(inst.d), path.name

    def test_primes_of_s_and_v(self, golden_even_2):
        # G_n = F_n s v, so the orbit finds every prime of s = 3 * 19 and
        # v = 2 * 599 at every depth, and factor_over tests each on F_n
        # itself: F_n is prime to them, a multiple of F_n by them is not
        inst = golden_even_2
        assert (inst.s, inst.x0.denominator) == (57, 1198)
        extra = 2**3 * 3 * 19**2 * 599
        for bound in (97, 10**6):
            divisors = orbit_prime_divisors(inst, bound)
            for n, f_n in enumerate(_fns_up_to(inst, 50_000), 1):
                primes = next(divisors)
                assert {q for q in (2, 3, 19, 599) if q <= bound} <= set(primes)
                assert factor_over(f_n, primes, bound) == trial_factor(f_n, bound)
                got = factor_over(f_n * extra, primes, bound)
                assert got == trial_factor(f_n * extra, bound), (n, bound)
                assert got[0][19] == 2

    def test_zero_and_negative_bound(self, golden_odd_3):
        with pytest.raises(ValueError):
            factor_over(0, [2, 3], 10)
        with pytest.raises(ValueError, match="negative"):
            next(orbit_prime_divisors(golden_odd_3, -1))

    def test_small_bound_builds_no_sieve(self, golden_even_2, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve to {bound} built")

        monkeypatch.setattr(importlib.import_module("odoni.certify"), "primes_array", no_sieve)
        cert = certify(golden_even_2, 4, exhibit_effort=1)
        assert cert.verdict_pass
        assert not any(r.exhibited_q.found for r in cert.records)

    def test_cap_refused_before_allocating(self, golden_even_2):
        # one past the cap raises before the 10 MB sieve is built
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="cap"):
                certify(golden_even_2, 1, exhibit_effort=EXHIBIT_EFFORT_CAP + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6, peak


class TestDiscValuationRule:
    # the witness check's rule against disc_levels, the oracle: at every
    # prime q outside the bad set, v_q(disc(f^n - x0)) equals
    # sum over k <= n of d^(n-k) v_q(F_k), and the exhibited witness's
    # two booleans match the ones read off the discriminant pairs
    PRIMES = [q for q in range(2, 2001) if is_prime(q)]

    @pytest.mark.parametrize("d, depth", [(2, 7), (3, 5), (4, 4), (5, 3), (6, 3), (9, 2)])
    def test_matches_disc_levels(self, d, depth):
        inst = build_params(d)
        fns = [value.F_n for value in fn_sequence(inst, depth)]
        pairs = list(itertools.islice(disc_levels(inst, 2**30), depth))
        primes = [q for q in self.PRIMES if inst.bad_product % q]
        for n in range(1, depth + 1):
            report = exhibit_odd_prime_q(inst, n, fns=fns[:n])
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
        assert [r.n for r in cert.records] == [1, 2, 3]
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
        with pytest.raises(CertifyError):
            certify(golden_even_2, 0)

    def test_json_digest_for_huge_values(self, golden_odd_9):
        cert = certify(golden_odd_9, 3, exhibit=False)
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


class TestBeyondAcceptanceEnvelope:
    def test_depth_past_eisenstein_window(self, golden_even_2):
        cert = certify(golden_even_2, 5)
        assert cert.verdict_pass
        assert [r.eisenstein_ok for r in cert.records] == [True, True, True, None, None]

    @pytest.mark.parametrize("d", [11, 12])
    def test_larger_degrees(self, d):
        cert = certify(build_params(d), 2, exhibit=False)
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

    # deep certificates without the witness search: digests of F_n and
    # M_n far above the 2048-bit cut-off of decimal_str's direct route,
    # and dual-path checks on Mbit-sized values
    DEEP_HASHES = {
        (2, 13): "193369b43e3adf56de81d3ae18fcdd8d6ad045faac5d00d361c237286b76fb82",
        (3, 9): "bb53ebde5ddbfb6094ec52794dc5fdf1480f5cd2d72cf9700b4edc36f5970f81",
        # the even d >= 4 branch of fn_sequence and of the congruence
        (6, 5): "f5cfe5dfd30a363266dc789cc03d44e348877d79c3fb122f7a40fcb279d0c2f5",
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
        cert = certify(build_params(d), depth, exhibit=False)
        assert self._hash(cert) == self.DEEP_HASHES[d, depth]

    # certificates at the default effort: the witness search factors F_n
    # of up to 88 kbit (d = 2) and 141 kbit (d = 3) and decides each
    # witness's discriminant fields from F_1..F_n
    WITNESS_HASHES = {
        (2, 12): "300dc36665932ac6bd58f79a924a5ad1ff19c9cd64550e72d24b736c709a6b37",
        (3, 9): "816ac5a1e5c715162ff07565e4944747be2fca3e4c32084c7dcf110e045d9dd5",
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
        plain = certify(golden_even_2, 4, exhibit=False)
        assert cert.verdict_pass
        assert [r.n for r in cert.records] == [r.n for r in plain.records] == [1, 2, 3, 4]
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
        found = [r.n for r in cert.records if r.exhibited_q.found]
        assert cert.verdict_pass
        assert max(found, default=0) == deepest
        assert steps == 0
