"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time. Tolerances and budgets are pinned here, not
configurable."""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

from fn_helpers import compute_fn, fn_sequence_oracle
from odoni import cli
from odoni.arith import legendre
from odoni.certify import certify, check_condition2, expected_e_n, fn_sequence
from odoni.construct import (
    IterInstance,
    build_params,
    instance_to_json_dict,
)
from odoni.frobenius import chebotarev_distance, sample_distribution
from odoni.newton import newton_polygon
from odoni.permgroup import Perm, gen_sd_check, leaf_type_distribution
from odoni.poly import Trinomial, disc_iterate, disc_trinomial
from newton_helpers import predict_two_segments
from poly_oracle import Poly, disc_resultant, expand, f_poly, iterate
from wreath_oracle import enumerate_wreath, enumerated_law, wreath_order

X = Poly.x()


def _report(number: int, description: str, started: float):
    print(f"ACCEPTANCE {number}: PASS - {description} ({time.time() - started:.1f}s)")


def test_criterion_1_trinomial_disc_oracle():
    started = time.time()
    assert disc_trinomial(Trinomial(1, -1, 1, 3, 2)) == -23
    assert disc_resultant(X**3 - X * X + 1) == -23
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        d = rng.randint(2, 9)
        m = rng.randint(1, d - 1)
        if math.gcd(m, d) != 1:
            continue
        a = Fraction(rng.choice([x for x in range(-20, 21) if x]), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        c = Fraction(rng.choice([x for x in range(-20, 21) if x]), rng.randint(1, 20))
        t = Trinomial(a, b, c, d, m)
        assert disc_trinomial(t) == disc_resultant(expand(t))
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 5
    _report(1, f"closed-form trinomial discriminant == resultant oracle on {checked} random trinomials", started)


def test_criterion_2_iterated_disc_recursion():
    started = time.time()
    rng = random.Random(77)
    for d in (2, 3):
        for _ in range(20):
            m = rng.choice([1, d - 1])
            b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            x0 = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
            inst = SimpleNamespace(d=d, m=m, b=b, x0=x0)
            coeffs = [Fraction(0)] * (d + 1)
            coeffs[m] = -b
            coeffs[d] = Fraction(1)
            f = Poly(coeffs)
            for n in (1, 2):
                assert disc_iterate(inst, n) == disc_resultant(iterate(f, n) - x0)
    elapsed = time.time() - started
    assert elapsed < 30
    _report(2, "level recursion for disc(f^n - x0) == expanded resultant, d in {2,3}, n in {1,2}, 20 instances each", started)


def test_criterion_3_dual_path_fn():
    started = time.time()
    # pinned base cases and golden values
    even2 = build_params(2)
    v1 = compute_fn(even2, 1)
    assert v1.M_n == -1 and v1.e_n == 2
    s, t, big_d = even2.s, even2.t, even2.big_d
    assert (s, t) == (57, 1198)
    # the defining value of F_1, confirmed by the independent resultant
    # oracle: disc(f - x0) * t^2 D^2 / s = s^3 + 4 t D^2 = -F_1
    oracle = disc_resultant(f_poly(even2) - even2.x0) * t**2 * big_d**2 / s
    assert v1.F_n == -(s**3) - 4 * t * big_d**2
    assert oracle == -v1.F_n
    odd3 = build_params(3)
    w1 = compute_fn(odd3, 1)
    assert w1.M_n == 1
    assert w1.F_n == 4 * 5**4 - 27 * 7**4
    # dual-path equality and coprimality across all golden instances:
    # fn_sequence raises on any recursion/direct-evaluation mismatch
    for d in (2, 3, 4, 5, 6, 9):
        inst = build_params(d)
        for value, exact in zip(fn_sequence(inst, 3), fn_sequence_oracle(inst, 3)):
            assert value.F_n == exact.F_n and value.M_n == exact.M_n
            assert math.gcd(exact.F_n, inst.bad_product) == 1
            assert value.e_n == expected_e_n(inst, value.n)
    elapsed = time.time() - started
    assert elapsed < 60
    _report(3, "recursion F_n == direct critical-orbit F_n with coprimality, golden d in {2,3,4,5,6,9}, n <= 3", started)


def test_criterion_4_end_to_end_pipelines(tmp_path):
    started = time.time()
    for d in (2, 3, 4, 5, 6, 7, 9, 10):
        out = tmp_path / f"report_{d}.json"
        primes = str(2000 if d in (2, 3) else 500)
        code = cli.run(
            [
                "pipeline",
                "--degree",
                str(d),
                "--depth",
                "3",
                "--primes",
                primes,
                "--out",
                str(out),
            ]
        )
        assert code == 0, f"pipeline exit {code} for degree {d}"
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["certificate"]["verdict"]["pass"] is True
        assert report["certificate"]["verdict"]["claimed_depths"] == [1, 2, 3]
    elapsed = time.time() - started
    assert elapsed < 600
    _report(4, "full pipeline (construct -> certify depth 3 -> frobenius) exit 0 for d in {2,3,4,5,6,7,9,10}", started)


def test_criterion_5_generation_criterion_property():
    started = time.time()
    rng = random.Random(5040)

    def rand_perm(d):
        images = list(range(d))
        rng.shuffle(images)
        return Perm(images)

    def rand_transposition(d):
        i, j = rng.sample(range(d), 2)
        images = list(range(d))
        images[i], images[j] = images[j], images[i]
        return Perm(images)

    def rand_head(d, m):
        head = list(range(m))
        rng.shuffle(head)
        return Perm(head + list(range(m, d)))

    shapes = [(3, 2), (4, 3), (5, 3), (5, 4), (7, 4), (7, 5), (7, 6)]
    for d, m in shapes:
        satisfied = 0
        while satisfied < 200:
            g_gens = [rand_transposition(d), rand_perm(d), rand_perm(d)]
            h_gens = [rand_head(d, m), rand_head(d, m)]
            verdict = gen_sd_check(d, m, g_gens, h_gens)
            if verdict.hypotheses_hold:
                assert verdict.conclusion_holds, (d, m, g_gens, h_gens)
                satisfied += 1
    elapsed = time.time() - started
    assert elapsed < 60
    _report(5, "200 hypothesis-satisfying generator sets per (d, m) all close to the full S_d, zero counterexamples", started)


def test_criterion_6_wreath_bookkeeping():
    started = time.time()
    for d, n in ((2, 2), (2, 3), (3, 2)):
        assert len(enumerate_wreath(d, n)) == wreath_order(d, n)
        # the cycle-index law equals the count over the enumerated group
        law = leaf_type_distribution(d, n)
        assert law == enumerated_law(d, n)
        assert list(law) == list(enumerated_law(d, n))
    assert leaf_type_distribution(2, 2) == {
        (1, 1, 1, 1): Fraction(1, 8),
        (2, 1, 1): Fraction(2, 8),
        (2, 2): Fraction(3, 8),
        (4,): Fraction(2, 8),
    }
    _report(6, "tree-group enumeration counts, the cycle-index law against enumeration, and the exact (2,2) leaf-type law", started)


def test_criterion_7_chebotarev_statistics():
    started = time.time()
    tolerance = Fraction(1, 20)
    even2 = build_params(2)
    sample22 = sample_distribution(even2, 2, 2000)
    tv22 = chebotarev_distance(sample22.frequencies(), sample22.law)
    assert tv22 <= tolerance, f"TV {tv22} > 1/20 for (2,2)"
    irreducible = Fraction(sample22.counts.get((4,), 0), sample22.used)
    assert Fraction(22, 100) <= irreducible <= Fraction(28, 100)
    odd3 = build_params(3)
    sample31 = sample_distribution(odd3, 1, 2000)
    tv31 = chebotarev_distance(sample31.frequencies(), sample31.law)
    assert tv31 <= tolerance, f"TV {tv31} > 1/20 for (3,1)"
    elapsed = time.time() - started
    assert elapsed < 120
    _report(
        7,
        f"2000-prime cycle-type statistics: TV(2,2)={float(tv22):.4f}, "
        f"TV(3,1)={float(tv31):.4f}, irreducible share {float(irreducible):.3f}",
        started,
    )


def test_criterion_8_newton_predictions():
    started = time.time()
    rng = random.Random(31)
    p = 5
    built = 0
    while built < 50:
        d = rng.randint(2, 8)
        m = rng.randint(1, d - 1)
        v_b = -(d - m) * rng.randint(1, 3)
        v = rng.randint(1, 4)
        unit, unit2 = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3, 4])
        b = Fraction(unit) * Fraction(p) ** v_b
        beta = b * p**v * unit2
        f = X**d - b * X**m - beta
        assert newton_polygon(f.coeffs, p).segments == predict_two_segments(d, m, v_b, v)
        built += 1
    for d in (4, 5, 6, 7, 9, 10):
        inst = build_params(d)
        tower = check_condition2(inst, 4).tower
        for level in tower:
            assert level.scaled > 0
            assert math.gcd(level.scaled, inst.m) == 1
    elapsed = time.time() - started
    assert elapsed < 5
    _report(8, "two-segment polygon prediction == hull oracle on 50 witnesses; tower numerators coprime to m to depth 4", started)


def test_criterion_9_negative_controls(tmp_path, capsys):
    started = time.time()

    def _write(inst, name):
        path = tmp_path / name
        path.write_text(json.dumps(instance_to_json_dict(inst)))
        return str(path)

    # (a) tampered b: scaled by p2, breaking condition 2(b)/(c)
    base4 = build_params(4)
    tampered_b = _write(replace(base4, b=base4.b * base4.p2), "tampered_b.json")
    code = cli.run(["certify", "--params", tampered_b, "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "condition2" in err

    # (b) square F_n: a handmade instance whose unit-square prime sees 3
    # as a residue, so F_1 mod p lands in the squares and the nonsquare
    # relation is the (first and only) violated check
    square_fn = IterInstance(
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
    assert legendre(compute_fn(square_fn, 1).F_n, 13) == 1
    path = _write(square_fn, "square_fn.json")
    code = cli.run(["certify", "--params", path, "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Fn_nonsquare_mod_p" in err

    # (c) non-Eisenstein shift: x0 scaled by p1 lifts the constant-term
    # valuation of f^n - x0 to 2, killing both the Eisenstein property
    # and condition (1), which is the first named violation
    base2 = build_params(2)
    shifted = _write(replace(base2, x0=base2.x0 * base2.p1), "non_eisenstein.json")
    code = cli.run(["certify", "--params", shifted, "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "condition1.v_p1_x0" in err

    _report(9, "forced-failure fixtures exit 1 and name the violated relation", started)
