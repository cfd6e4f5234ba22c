import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from odoni.arith import CapExceededError, RelationError, legendre, val
from odoni.construct import (
    IterInstance,
    build_params,
    build_params_even,
    build_params_odd,
    instance_from_json_dict,
    instance_to_json_dict,
)


class TestAuxPrimes:
    def test_even_examples(self):
        # the unit-square prime: p = 1 (mod 4), clear of d(d-1), 1-d a square
        assert build_params_even(2).p == 5
        assert build_params_even(4).p == 13
        assert build_params_even(6).p == 29

    def test_odd_examples(self):
        # the unit-square prime, with d (case 1) or d-2 (case 2) a non-residue
        assert build_params_odd(3).p1 == 5
        assert build_params_odd(9).p2 == 5
        assert build_params_odd(5).p1 == 13

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            build_params_even(3)
        with pytest.raises(ValueError):
            build_params_odd(4)


class TestBuildEven:
    def test_golden_degree_two(self, golden_even_2):
        inst = golden_even_2
        assert (inst.p, inst.p1, inst.s, inst.t) == (5, 3, 57, 1198)
        assert inst.x0 == Fraction(57, 1198)
        assert inst.b == Fraction(3249, 1503490)
        assert inst.m == 1 and inst.p2 == 5

    def test_golden_degree_two_valuations(self, golden_even_2):
        inst = golden_even_2
        assert val(inst.x0, 3) == 1
        assert val(inst.b, 3) == 2
        assert val(inst.x0, 5) == 0
        assert val(inst.b, 5) == -1
        assert val(inst.s + inst.t, 5) == 1  # v_5(1255) = 1

    def test_step_two_structure(self, golden_even_4):
        inst = golden_even_4
        d = inst.d
        assert inst.s % (d * (d - 1)) == 1
        assert legendre(inst.s, inst.p) == -1
        assert val(inst.s, inst.p1) == 1
        assert inst.t % (inst.s * (d - 1)) == 1
        assert val(inst.big_d, inst.p) == 1
        assert math.gcd(d - 1, inst.big_d) == 1

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_postconditions_all_even(self, d):
        inst = build_params_even(d)
        assert val(inst.x0, inst.p1) == 1
        assert val(inst.b, inst.p1) == d
        assert val(inst.x0, inst.p2) == 0
        assert val(inst.b, inst.p2) == -1
        assert not inst.violated_relations()

    def test_bit_budget_checked_before_b(self):
        # at d = 20000, s and t have 49 bits each, so b = s^d/(tD) is
        # bounded by 40000 * 49 + 1 bits, over the 2^20-bit budget: the
        # run stops before s^(d-1), about 120 kB on its own, is formed
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="1960001 bits"):
                build_params_even(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60_000


class TestBuildOdd:
    def test_golden_degree_three(self, golden_odd_3):
        inst = golden_odd_3
        assert (inst.p1, inst.s, inst.p2, inst.t) == (5, 5, 7, 7)
        assert inst.parity_case == "odd-case-1"
        assert inst.x0 == Fraction(5, 7)
        assert inst.b == Fraction(25, 49)
        assert inst.m == 1

    def test_degree_nine_case_two(self, golden_odd_9):
        inst = golden_odd_9
        assert inst.parity_case == "odd-case-2"
        assert (inst.p2, inst.t) == (5, 5)
        assert (inst.p1, inst.s) == (11, 11)
        assert inst.x0 == Fraction(11, 5)

    def test_degree_five(self, golden_odd_5):
        inst = golden_odd_5
        assert (inst.p1, inst.s, inst.p2, inst.t) == (13, 13, 7, 7)

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_postconditions_all_odd(self, d):
        inst = build_params_odd(d)
        assert val(inst.x0, inst.p1) == 1
        assert val(inst.b, inst.p1) == 2
        assert val(inst.x0, inst.p2) == -1
        assert val(inst.b, inst.p2) == -2
        assert math.gcd(2 * (d - 2) * inst.s, d * inst.t) == 1
        assert not inst.violated_relations()


class TestDeterminismAndJson:
    @pytest.mark.parametrize("d", [2, 3, 4, 9])
    def test_byte_identical_rebuild(self, d):
        first = json.dumps(instance_to_json_dict(build_params(d)), sort_keys=True)
        second = json.dumps(instance_to_json_dict(build_params(d)), sort_keys=True)
        assert first == second

    def test_round_trip(self, golden_even_2):
        data = instance_to_json_dict(golden_even_2)
        back = instance_from_json_dict(data)
        assert back == golden_even_2
        assert instance_to_json_dict(back) == data

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json_dict({"d": "2"})

    def test_tampered_b_flagged(self, golden_even_4):
        inst = golden_even_4
        tampered = replace(inst, b=inst.b * inst.p2)
        assert any("b ==" in rel for rel in tampered.violated_relations())

    def test_tampered_x0_flagged(self, golden_odd_3):
        inst = golden_odd_3
        tampered = replace(inst, x0=inst.x0 * inst.p1)
        violations = tampered.violated_relations()
        assert violations  # x0 no longer matches s/t, and b != x0^2

    def test_params_past_the_int_string_digit_limit(self):
        # b's denominator at degree 400 has 4766 digits, over the
        # interpreter's default limit of 4300; the file still reads back
        inst = build_params(400)
        data = instance_to_json_dict(inst)
        assert len(data["b"].split("/")[1]) == 4766
        assert instance_from_json_dict(data) == inst

    def test_golden_hash_degrees_two_to_39(self):
        # every instance for d = 2..39, pinned byte for byte
        text = json.dumps([instance_to_json_dict(build_params(d)) for d in range(2, 40)])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b4d31f2e2bc5c2cdd96f3fdb098b755c0c51495051c6a63b5dd7c77a7f7f3ae3"
        )

    def test_dispatch(self):
        assert build_params(2).parity_case == "even"
        assert build_params(3).parity_case == "odd-case-1"
        assert build_params(9).parity_case == "odd-case-2"


class TestInstanceInvariantsMessage:
    @pytest.mark.parametrize("d", [2, 3])
    def test_failure_names_the_violated_relations(self, d, monkeypatch):
        # each build decides the relations once, through violated_relations
        monkeypatch.setattr(IterInstance, "violated_relations", lambda self: ["first", "second"])
        with pytest.raises(RelationError, match="instance invariants: first; second$") as info:
            build_params(d)
        assert info.value.check == "construct.postcondition"
