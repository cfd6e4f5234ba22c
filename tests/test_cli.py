import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from odoni import arith, cli, newton, permgroup
from odoni.certify import EXHIBIT_EFFORT_CAP
from odoni.construct import build_params, build_params_even, build_params_odd, instance_to_json_dict

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

def write_params(tmp_path, inst_dict, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(inst_dict))
    return str(path)


@pytest.fixture(scope="module")
def params_d2(tmp_path_factory):
    inst = build_params_even(2)
    path = tmp_path_factory.mktemp("cli") / "p2.json"
    path.write_text(json.dumps(instance_to_json_dict(inst)))
    return str(path)


class TestConstructCommand:
    def test_golden_output(self, tmp_path, capsys):
        out = tmp_path / "params.json"
        code = cli.run(["construct", "--degree", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["s"] == "57"
        assert data["t"] == "1198"
        assert data["case"] == "even"

    def test_stdout_when_no_out(self, capsys):
        assert cli.run(["construct", "--degree", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["s"] == "5" and data["t"] == "7"

    def test_depth_hint_accepted(self, tmp_path):
        out = tmp_path / "p.json"
        assert cli.run(["construct", "--degree", "2", "--depth-hint", "3", "--out", str(out)]) == 0

    @pytest.mark.parametrize("hint", ["5", "1000000", "100000000"])
    def test_depth_hint_names_the_deepest_depth(self, hint, capsys):
        # the hint is compared with the deepest depth under the F_n cap,
        # found on bit lengths: d^hint is never formed
        started = time.monotonic()
        assert cli.run(["construct", "--degree", "10", "--depth-hint", hint]) == 0
        assert time.monotonic() - started < 1
        err = capsys.readouterr().err
        assert f"note: depth {hint} is past depth 4, the deepest" in err

    @pytest.mark.parametrize("hint", ["0", "-1"])
    def test_depth_hint_must_be_positive(self, hint, capsys):
        # as certify --depth 0 does, a hint below 1 is a usage error
        assert cli.run(["construct", "--degree", "2", "--depth-hint", hint]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a positive integer" in captured.err

    @pytest.mark.parametrize(
        "argv", [["construct", "--degree", "20000"], ["pipeline", "--degree", "20000", "--depth", "1"]]
    )
    def test_even_degree_over_the_bit_budget(self, argv, capsys):
        # b's bits are bounded from bits(s) and bits(t) before b is built
        started = time.monotonic()
        assert cli.run(argv) == 2
        assert time.monotonic() - started < 1
        assert "resource cap: even case: b = s^d/(t*(s^(d-1)+t^(d-1))) at degree 20000" in capsys.readouterr().err


class TestCertifyCommand:
    def test_pass_exit_zero(self, params_d2, tmp_path):
        out = tmp_path / "cert.json"
        code = cli.run(["certify", "--params", params_d2, "--depth", "3", "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["verdict"]["pass"] is True
        assert cert["verdict"]["claimed_depths"] == [1, 2, 3]

    def test_verbose_names_relations(self, params_d2, tmp_path, capsys):
        code = cli.run(["certify", "--params", params_d2, "--depth", "1", "--verbose"])
        assert code == 0
        err = capsys.readouterr().err
        assert "condition1.v_p1_x0" in err
        assert "depth1.Fn_nonsquare_mod_p" in err

    def test_missing_file_is_usage_error(self):
        assert cli.run(["certify", "--params", "/nonexistent.json"]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.run(["certify", "--params", str(bad)]) == 2

    def test_unknown_flag_is_usage_error(self, params_d2):
        assert cli.run(["certify", "--params", params_d2, "--nope"]) == 2

    def test_deep_witness_decided(self, tmp_path):
        # the depth-13 discriminant has over 4 Mbit, but the witness
        # check reads F_1..F_13 and answers both of its questions
        out = tmp_path / "cert.json"
        assert cli.run(["certify", "--params", str(INPUTS / "params_d2.json"), "--depth", "13",
                        "--out", str(out)]) == 0
        record = json.loads(out.read_text())["records"][12]
        assert record["n"] == 13
        witness = record["exhibited_q"]
        assert witness["found"] is True
        assert witness["lower_levels_clean"] is True
        assert witness["disc_valuation_odd"] is True


    @pytest.mark.parametrize(
        "argv, deepest",
        [
            (["certify", "--params", "{inputs}/params_d2.json", "--depth", "20"], 19),
            (["certify", "--params", "{inputs}/params_d6.json", "--depth", "20000",
              "--exhibit-effort", "1"], 6),
            (["pipeline", "--degree", "4", "--depth", "9"], 8),
        ],
    )
    def test_depth_over_the_cap_is_refused(self, argv, deepest, capsys):
        # one depth past the deepest certifiable one: refused before
        # condition (2)'s tower or any F_n is built
        started = time.monotonic()
        assert cli.run([a.format(inputs=INPUTS) for a in argv]) == 2
        assert time.monotonic() - started < 1
        err = capsys.readouterr().err
        depth = argv[argv.index("--depth") + 1]
        assert f"resource cap: certify: depth {depth} is past depth {deepest}" in err
        assert "check failed" not in err and "FAILED" not in err

    def test_non_prime_witnesses_fail_cleanly(self, tmp_path, capsys):
        data = instance_to_json_dict(build_params_even(2))
        data.update(p="1", p1="1", p2="1")
        out = tmp_path / "cert.json"
        code = cli.run(["certify", "--params", write_params(tmp_path, data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "instance.witness_primes_prime" in err
        assert "Traceback" not in err
        assert json.loads(out.read_text())["condition1"]["v_p1_b"] is None


class TestExitCodes:
    """Input outside a subcommand's contract exits 2 without a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--depth", "0"],
            ["frobenius", "--level", "2", "--primes", "0"],
            ["frobenius", "--level", "2", "--primes", "-5"],
            ["frobenius", "--level", "0", "--primes", "10"],
            # a negative effort once made trial division call the
            # composite 107 * 6949 * 10151 a witness prime
            ["certify", "--depth", "1", "--exhibit-effort", "-100000"],
            ["certify", "--depth", "1", "--exhibit-effort", "0"],
        ],
    )
    def test_out_of_range_values(self, params_d2, argv, capsys):
        assert cli.run(argv[:1] + ["--params", params_d2] + argv[1:]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("effort", [EXHIBIT_EFFORT_CAP + 1, 10**30])
    def test_effort_past_cap(self, params_d2, effort, tmp_path, capsys):
        # refused before the witness search builds its sieve, and before
        # any relation is judged: p1 = 4 fails
        # instance.witness_primes_prime, x0 = 7 condition1.v_p1_x0
        doc = json.loads(Path(params_d2).read_text())
        files = [params_d2] + [
            write_params(tmp_path, {**doc, key: value}, f"{key}.json")
            for key, value in (("p1", "4"), ("x0", "7"))
        ]
        for path in files:
            argv = ["certify", "--params", path, "--depth", "1", "--exhibit-effort", str(effort)]
            assert cli.run(argv) == 2, path
            err = capsys.readouterr().err
            assert err == f"resource cap: witness search bound {effort} is over the cap {EXHIBIT_EFFORT_CAP}\n"

    def test_pipeline_zero_primes(self, capsys):
        assert cli.run(["pipeline", "--degree", "2", "--primes", "0"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "g_gens", [[5], [[2, 1]], [[2, 3, 1.0]], "x"]
    )
    def test_malformed_generators(self, tmp_path, g_gens, capsys):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"d": 3, "m": 2, "g_gens": g_gens}))
        assert cli.run(["group-check", "--file", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # no good prime below the sampler's scan cap
            ["frobenius", "--params", "{params}", "--level", "1", "--primes", "10",
             "--start", "1000000000000"],
            # more primes than any window below the scan cap holds
            ["frobenius", "--params", "{params}", "--level", "1", "--primes", "700000"],
            # no witness prime below construct's search cap
            ["construct", "--degree", "5", "--cap", "10"],
        ],
    )
    def test_resource_cap_is_usage_error(self, params_d2, argv, capsys):
        assert cli.run([a.format(params=params_d2) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "below" in err and "cap" in err
        assert "check failed" not in err
        assert "Traceback" not in err


class TestEntryPoint:
    """``python -m odoni.cli`` in a fresh interpreter: ``main`` turns the
    exit code of ``run`` into the process's."""

    @staticmethod
    def _run(*argv):
        path = [str(INPUTS.parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run(
            [sys.executable, "-m", "odoni.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    def test_construct_prints_json(self):
        proc = self._run("construct", "--degree", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["d"] == "3"

    def test_depth_past_the_cap_exits_2(self):
        proc = self._run("certify", "--params", str(INPUTS / "params_d2.json"), "--depth", "20")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "resource cap" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDiscCommand:
    def test_trinomial(self, capsys):
        assert cli.run(["disc", "--trinomial=1,-1,1,3,2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "-23"

    def test_iterate(self, params_d2, capsys):
        assert cli.run(["disc", "--params", params_d2, "--level", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        # disc(f - x0) = s(s^3 + 4tD^2) / (tD)^2 for the golden instance
        assert data["value"] == "430219184601/2260482180100"


    def test_bit_budget_is_usage_error(self, params_d2, capsys):
        # level 12 of the d = 2 discriminant is 2 Mbit, over the 1 Mbit
        # budget: a resource cap, not a failed relation
        assert cli.run(["disc", "--params", params_d2, "--level", "12"]) == 2
        err = capsys.readouterr().err
        assert "level 12 may take up to 2234506 bits, over the budget 1048576" in err
        assert "check failed" not in err

    @pytest.mark.parametrize("source", ["d8", "degree1000000"])
    def test_over_budget_exits_before_building(self, tmp_path, source, capsys):
        # params_d8's level 4 would take 7.0 Mbit; a degree of 10^6 makes
        # A~ = d^d alone 20 Mbit. Both bounds trip before anything is built
        if source == "d8":
            path, level = str(INPUTS / "params_d8.json"), "4"
        else:
            data = instance_to_json_dict(build_params_even(2))
            data.update(d="1000000", m="999999")
            path, level = write_params(tmp_path, data), "1"
        started = time.monotonic()
        assert cli.run(["disc", "--params", path, "--level", level]) == 2
        assert time.monotonic() - started < 1
        assert f"resource cap: disc_levels: level {level} may take up to" in capsys.readouterr().err

    def test_unsupported_shape_is_input_error(self, tmp_path, capsys):
        # m = d - 3: no critical-orbit recursion, refused before level 1
        data = instance_to_json_dict(build_params_even(2))
        data.update(d="5", m="2")
        assert cli.run(["disc", "--params", write_params(tmp_path, data), "--level", "1"]) == 2
        assert "input error: disc_levels: unsupported (d, m) = (5, 2)" in capsys.readouterr().err

    def test_zero_discriminant_deep_level(self, tmp_path, capsys):
        # with x0 = 0 every level is 0; the critical orbit, which grows
        # d-fold per level, is not stepped past the first zero level
        inst = instance_to_json_dict(build_params_even(4))
        inst["x0"] = "0"
        path = write_params(tmp_path, inst)
        started = time.monotonic()
        assert cli.run(["disc", "--params", path, "--level", "40"]) == 0
        assert time.monotonic() - started < 5
        assert json.loads(capsys.readouterr().out)["value"] == "0"


class TestNewtonCommand:
    def test_polygon(self, capsys):
        assert cli.run(["newton", "--coeffs=-5,0,1", "--prime", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["segments"] == [{"slope": "-1/2", "length": 2}]

    def test_rational_coeffs(self, capsys):
        code = cli.run(["newton", "--coeffs=-1/49,0,0,-1/49,0,1", "--prime", "7"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["segments"] == [
            {"slope": "0", "length": 3},
            {"slope": "1", "length": 2},
        ]

    def test_prime_tested_once(self, monkeypatch, capsys):
        # p is decided once, before any valuation, not once per coefficient
        # (arith.val would test it again on every call)
        real, calls = arith.is_prime, []

        def counted(n):
            calls.append(n)
            return real(n)

        for module in (arith, newton):
            monkeypatch.setattr(module, "is_prime", counted)
        assert cli.run(["newton", "--coeffs=1,2,3,4,5,6,7,8", "--prime", "3"]) == 0
        assert calls == [3]
        assert json.loads(capsys.readouterr().out)["prime"] == 3

    @pytest.mark.parametrize("prime", ["15", "1", "0", "-7"])
    def test_composite_prime_is_usage_error(self, prime, capsys):
        assert cli.run(["newton", "--coeffs=1,2,3,4,5,6,7,8", f"--prime={prime}"]) == 2
        assert f"modulus {prime} is not prime" in capsys.readouterr().err


class TestRationalCap:
    """Rational entries are capped from the literal, before Fraction runs."""

    def test_oversized_literal_is_input_error(self, capsys):
        # Fraction("1e300000") is a 1 Mbit integer that val() then strips
        # of 300000 factors of 5 one division at a time
        started = time.monotonic()
        assert cli.run(["newton", "--coeffs=1e300000,1", "--prime", "5"]) == 2
        assert time.monotonic() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error" in captured.err and f"{arith.RATIONAL_BIT_CAP}-bit cap" in captured.err

    @pytest.mark.parametrize(
        "entry", ["1e300000", "1e-300000", "1.5e99999999999999", "1/1" + "0" * 9900, "3e9864"]
    )
    def test_over_cap_entries(self, entry):
        with pytest.raises(ValueError, match="-bit cap"):
            arith._rationals([entry], "--coeffs")

    def test_largest_accepted_literal(self, capsys):
        # 10^9863 has 32765 bits; 10^9864 is over the cap
        assert arith._entry_bits("1e9863") <= arith.RATIONAL_BIT_CAP < arith._entry_bits("1e9864")
        for prime in ("2", "5"):
            started = time.monotonic()
            assert cli.run(["newton", "--coeffs=1e9863,1", "--prime", prime]) == 0
            assert time.monotonic() - started < 1

    def test_bound_holds(self):
        entries = ["0", "-9", "99", "999", "10", "-1/49", "7/1_000", "2.5", "-0.0625", "1e3",
                   "1.25E-2", " 12_345/6 ", "+.5e+1", "9" * 600, "1" + "0" * 4000, 2**70,
                   -1, True, 0.1, 5e-324]
        for entry in entries:
            q = Fraction(entry)
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            # a float reads 0: its value has at most 1075 bits, under the cap
            bound = 1075 if isinstance(entry, float) else arith._entry_bits(entry)
            assert bits <= bound, entry

    def test_literals_past_the_int_string_digit_limit(self):
        # 9000 and 5000 digits: over the interpreter's int-string digit
        # limit (4300 by default), within the cap, read exactly
        limit = sys.get_int_max_str_digits()
        entries = ["-" + "7" * 9000 + "/3", "1" + "0" * 4999 + ".25e-2"]
        assert arith._rationals(entries, "x0") == [
            Fraction(-7 * (10**9000 - 1) // 9, 3),
            Fraction(4 * 10**4999 + 1, 400),
        ]
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("form", ["12/3", " 12 / 3 ", "-12_3/4", "+.12E3", "12.", "12.3.4", "12__3", "12e", "0x12"])
    def test_long_literal_keeps_the_grammar_of_fraction(self, form):
        # "12" repeated past the digit limit: accepted exactly
        # when this interpreter's Fraction accepts the short form (3.12
        # and later allow spaces around "/", 3.10 and 3.11 do not)
        try:
            Fraction(form)
            valid = True
        except ValueError:
            valid = False
        long = form.replace("12", "12" * 2500)
        try:
            arith._rationals([long], "x0")
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == valid

    @pytest.mark.parametrize("tail", ["x", "/0", ".5.5"])
    def test_long_malformed_literal_is_clipped(self, tail):
        with pytest.raises(ValueError) as info:
            arith._rationals(["1" * 5000 + tail], "x0")
        assert str(info.value) == "x0: '" + "1" * 24 + "...' is not a rational number"

    def test_disc_trinomial_cap(self, capsys):
        # the value would have about 20 Mbit and took 18.5 s to build
        started = time.monotonic()
        assert cli.run(["disc", "--trinomial=1,1,1,1000000,1"]) == 2
        assert time.monotonic() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource cap" in captured.err and "bit budget 1048576" in captured.err

    def test_disc_trinomial_below_cap(self, capsys):
        assert cli.run(["disc", "--trinomial=1,1,1,20000,1"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert len(value) > 20000 * 4  # 20000^20000 has 86021 digits


class TestHostileFiles:
    """Params and group-check files from outside enter through the same
    bounded reader as the command-line rationals: an over-cap literal or
    a non-finite number is an input error, never a traceback."""

    COMMANDS = [
        ["certify", "--exhibit-effort", "50"],
        ["disc", "--level", "1"],
        ["frobenius", "--level", "1", "--primes", "10"],
    ]

    @staticmethod
    def input_error(argv, capsys):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert "input error" in captured.err and "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("d, key", [(3, "x0"), (2, "b")])
    def test_over_cap_literal(self, tmp_path, capsys, d, key, command):
        # these once exited 1, 0 and 1: certify and frobenius built the
        # 133-kbit value and failed a relation, disc computed level 1 from it
        doc = {**instance_to_json_dict(build_params(d)), key: "1e40000"}
        err = self.input_error([command[0], "--params", write_params(tmp_path, doc), *command[1:]], capsys)
        assert f"{key}: '1e40000' exceeds the {arith.RATIONAL_BIT_CAP}-bit cap" in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("key", ["x0", "d"])
    @pytest.mark.parametrize("token", ["Infinity", "1e400"])
    def test_non_finite_number(self, tmp_path, capsys, token, key, command):
        # json reads both tokens as float("inf"); each once ended in an
        # OverflowError traceback with exit 1
        doc = {**instance_to_json_dict(build_params(2)), key: "<raw>"}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc).replace('"<raw>"', token))
        self.input_error([command[0], "--params", str(path), *command[1:]], capsys)

    @staticmethod
    def params_with_raw(tmp_path, name, key, raw):
        # json.dumps cannot write an int past the int-string digit limit,
        # so the raw token replaces a placeholder in the text
        doc = {**instance_to_json_dict(build_params(3)), key: "<raw>"}
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace('"<raw>"', raw))
        return str(path)

    def test_bare_integer_reads_as_quoted(self, tmp_path, capsys):
        # a bare 5000-digit x0 once exited 2 with the interpreter's
        # "Exceeds the limit (4300 digits)"; it now reads as its quoted
        # form does, and fails the same relation
        limit = sys.get_int_max_str_digits()
        digits = "7" * 5000
        outcomes = []
        for name, raw in (("bare.json", digits), ("quoted.json", f'"{digits}"')):
            path = self.params_with_raw(tmp_path, name, "x0", raw)
            code = cli.run(["certify", "--params", path, "--exhibit-effort", "50"])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (1, "certificate FAILED at: condition1.v_p1_x0\n")
        assert sys.get_int_max_str_digits() == limit

    def test_bare_integer_over_the_cap(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = self.params_with_raw(tmp_path, "over.json", "x0", "7" * 10000)
        err = self.input_error(["certify", "--params", path, "--exhibit-effort", "50"], capsys)
        assert f"exceeds the {arith.RATIONAL_BIT_CAP}-bit cap" in err
        assert sys.get_int_max_str_digits() == limit

    def test_even_case_over_the_bit_budget(self, tmp_path, capsys):
        # D = s^(d-1) + t^(d-1) with s = 10^1000 and d = 100000 has about
        # 3.3e8 bits; the structural check once ran past 30 s building it
        doc = {**instance_to_json_dict(build_params(2)), "d": "100000", "m": "99999",
               "s": "1" + "0" * 1000, "x0": "1" + "0" * 1000, "t": "1", "b": "1",
               "p": "5", "p1": "5", "p2": "5"}
        started = time.monotonic()
        code = cli.run(["certify", "--params", write_params(tmp_path, doc), "--depth", "1"])
        assert time.monotonic() - started < 2
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("resource cap: even case: b = s^d/(t*(s^(d-1)+t^(d-1)))")
        assert "Traceback" not in captured.err

    def test_non_finite_group_degree(self, tmp_path, capsys):
        path = tmp_path / "gens.json"
        path.write_text('{"d": Infinity, "m": 2, "g_gens": [[2, 3, 1]]}')
        self.input_error(["group-check", "--file", str(path)], capsys)


class TestGroupCheckCommand:
    def test_pass(self, tmp_path, capsys):
        gens = {
            "d": 5,
            "m": 3,
            "g_gens": [[2, 3, 4, 5, 1], [1, 2, 3, 5, 4]],
            "h_gens": [[2, 3, 1, 4, 5]],
        }
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(gens))
        assert cli.run(["group-check", "--file", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conclusion_holds"] is True

    def test_hypothesis_failure_exit_one(self, tmp_path, capsys):
        gens = {"d": 5, "m": 3, "g_gens": [[2, 3, 4, 5, 1]], "h_gens": []}
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(gens))
        assert cli.run(["group-check", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert "g_contains_transposition" in err

    @staticmethod
    def sd_generators(d, m):
        """(1 2) and (1 2 ... d) for g, the head cycle (1 2 ... m) for h,
        as 1-based image lists."""
        return {
            "d": d,
            "m": m,
            "g_gens": [[2, 1] + list(range(3, d + 1)), list(range(2, d + 1)) + [1]],
            "h_gens": [list(range(2, m + 1)) + [1] + list(range(m + 1, d + 1))],
        }

    @pytest.mark.parametrize("d", [9, 10, 30])
    def test_past_degree_eight(self, tmp_path, capsys, d):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(self.sd_generators(d, d - 1)))
        assert cli.run(["group-check", "--file", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["group_order"] == math.factorial(d)
        assert data["hypotheses_hold"] is True and data["conclusion_holds"] is True

    def test_degree_over_cap_exit_two(self, tmp_path, capsys):
        d = permgroup.MAX_CLOSURE_DEGREE + 1
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(self.sd_generators(d, d - 1)))
        assert cli.run(["group-check", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and f"exceeds {d - 1}" in captured.err


class TestFrobeniusCommand:
    def test_small_run(self, params_d2, tmp_path):
        out = tmp_path / "stats.json"
        code = cli.run(
            [
                "frobenius",
                "--params",
                params_d2,
                "--level",
                "2",
                "--primes",
                "250",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "odoni-frobenius-v2"
        assert data["primes_used"] == 250
        assert data["tolerance_enforced"] is False
        assert "seed" not in data

    def test_law_built_once_per_run(self, params_d2, tmp_path, monkeypatch):
        # the sample, the distance and the JSON read one law; there is no
        # process-wide memo to hide a second build
        frobenius_module = importlib.import_module("odoni.frobenius")
        real, calls = frobenius_module.leaf_type_distribution, []

        def counted(d, n):
            calls.append((d, n))
            return real(d, n)

        monkeypatch.setattr(frobenius_module, "leaf_type_distribution", counted)
        out = tmp_path / "stats.json"
        argv = ["frobenius", "--params", params_d2, "--level", "2", "--primes", "60"]
        assert cli.run(argv + ["--out", str(out)]) == 0
        assert calls == [(2, 2)]
        exact = json.loads(out.read_text())["exact"]
        assert exact == [{"type": list(t), "frequency": str(f)} for t, f in real(2, 2).items()]

    def test_env_seed_override(self, params_d2, tmp_path, monkeypatch):
        # ODONI_SEED is no longer read: the report is byte-identical with it set
        argv = ["frobenius", "--params", params_d2, "--level", "1", "--primes", "60", "--out"]
        monkeypatch.delenv("ODONI_SEED", raising=False)
        assert cli.run(argv + [str(tmp_path / "unset.json")]) == 0
        monkeypatch.setenv("ODONI_SEED", "777")
        assert cli.run(argv + [str(tmp_path / "set.json")]) == 0
        assert (tmp_path / "set.json").read_bytes() == (tmp_path / "unset.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobenius", "--params", "x.json", "--level", "1", "--seed", "0"],
            ["pipeline", "--degree", "2", "--seed", "0"],
        ],
    )
    def test_seed_flag_is_usage_error(self, argv, capsys):
        assert cli.run(argv) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [16, 40])
    def test_unenumerable_level_exits_before_the_order(self, params_d2, level, capsys):
        # the tree group's order (2!)^(2^level - 1) is never built: the cap
        # is decided on the exponent (at level 40 the order has 2^40 bits)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code = cli.run(["frobenius", "--params", params_d2, "--level", str(level), "--primes", "5"])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"depth-{level} tree group of degree 2" in err
        assert "enumerable cap 100000" in err
        assert elapsed < 1.0
        assert peak < 1e6

    def test_over_cap_exits_before_the_relations(self, tmp_path, capsys):
        # as for disc (TestDiscCommand.test_over_budget_exits_before_building):
        # a degree of 10^6 puts level 1 past the enumerable cap, which is
        # decided before the structural relations build s^(d-1) + t^(d-1)
        data = instance_to_json_dict(build_params_even(2))
        data.update(d="1000000", m="999999")
        path = write_params(tmp_path, data)
        started = time.monotonic()
        assert cli.run(["frobenius", "--params", path, "--level", "1", "--primes", "5"]) == 2
        assert time.monotonic() - started < 1
        assert "enumerable cap" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("p1", "4"), ("x0", "7")])
    def test_over_cap_primes_exit_before_the_relations(self, params_d2, tmp_path, key, value, capsys):
        # a file that breaks a relation (p1 prime; x0 == s/t) meets the
        # prime-count cap first, as a valid one does
        doc = {**json.loads(Path(params_d2).read_text()), key: value}
        path = write_params(tmp_path, doc)
        assert cli.run(["frobenius", "--params", path, "--level", "1", "--primes", "5"]) == 1
        capsys.readouterr()
        assert cli.run(["frobenius", "--params", path, "--level", "1", "--primes", "700000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("resource cap: 700000 primes requested")
        assert "check failed" not in err

    def test_degree_below_two_names_relation(self, tmp_path, capsys):
        # d = 1 has no tree group for the cap to decide on; the failed
        # relation is named, as for any instance outside the family
        data = instance_to_json_dict(build_params_even(2))
        data["d"] = "1"
        path = write_params(tmp_path, data)
        assert cli.run(["frobenius", "--params", path, "--level", "1", "--primes", "5"]) == 1
        assert "instance.structural_invariants: d >= 2" in capsys.readouterr().err

    def test_degenerate_instance_names_relation(self, tmp_path, capsys):
        # b = 0 breaks b == x0^2; sampling such an instance proves nothing
        data = instance_to_json_dict(build_params_odd(3))
        data["b"] = "0"
        path = write_params(tmp_path, data)
        assert cli.run(["frobenius", "--params", path, "--level", "1", "--primes", "50"]) == 1
        err = capsys.readouterr().err
        assert "instance.structural_invariants" in err
        assert "b == x0^2" in err


class TestGoldenOutputBytes:
    """sha256 of the bytes the frobenius and pipeline commands write:
    the group-oracles benchmark's four frobenius shapes at a fixed
    --start, a scan above 5 * 10^6 that crosses a 65536-wide sieve
    window, and the pipeline at degree 3, depth 3."""

    FROBENIUS = {
        (2, 2, 2000, 6000): "eee947ac7c3d6c2e8f8a3a25dc4d99ea9600c14b4350838b11f26a22c35d041f",
        (3, 1, 2000, 6000): "6e54ba7ec623f0f682f584ae9abcc9a266fa0cfedd7e91ef5a2e80f3582891dc",
        (2, 3, 500, 6000): "8439e701ee364950a531e785cea0d3a734cf221b2bf3ab4ae04b7e410f4b56f5",
        (8, 1, 200, 6000): "7a053c0ad22dc8dffcab4fe6cc063770fdcd06b203e337c4f217a0407394d518",
        (3, 1, 5000, 5 * 10**6): "47e0566ae283492898b1cf831e28be552bdccee48538fcc1915af2dddd3e84f8",
    }
    PIPELINE = "5a9611c24771dd48097091ec66ce19f8b3706382c59f54dd1d21dfb700bb59a3"

    @pytest.mark.parametrize("d, level, primes, start", sorted(FROBENIUS))
    def test_frobenius(self, tmp_path, d, level, primes, start):
        params = write_params(tmp_path, instance_to_json_dict(build_params(d)))
        out = tmp_path / "report.json"
        argv = ["frobenius", "--params", params, "--level", str(level), "--primes", str(primes),
                "--start", str(start), "--out", str(out)]
        assert cli.run(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FROBENIUS[d, level, primes, start]

    def test_pipeline(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.run(["pipeline", "--degree", "3", "--depth", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PIPELINE

    # certify --verbose: the witness-prime gate (p1 = 9 on the degree-2
    # instance), whose failed check is the only one, and the check log
    # of a passing degree-4 run at depth 3; each pair is the sha256 of
    # the JSON written to --out and of stderr
    CERTIFY_GATE = (
        "93da40315d6e51a27c4e5129f7674ef8fb943a78ffeea4cdc3a7d079ac5f3799",
        "57c201fbebc9791e6d91b23cf7920a2fde7f79200d63d4ec17f521fb268c160a",
    )
    CERTIFY_VERBOSE_D4 = (
        "377cabf5b117340e122bf52deef2ad8002f6a5c3c08cad0e4243ee6d71b48236",
        "688986b56fc842587bc6dbfe510e62261b53275e449b83a8d9fa73ee18401347",
    )

    @staticmethod
    def certify_bytes(tmp_path, capsys, doc, *args):
        out = tmp_path / "cert.json"
        code = cli.run(["certify", "--params", write_params(tmp_path, doc), "--verbose",
                        "--out", str(out), *args])
        err = capsys.readouterr().err
        return code, err, (hashlib.sha256(out.read_bytes()).hexdigest(),
                           hashlib.sha256(err.encode()).hexdigest())

    def test_certify_witness_prime_gate(self, tmp_path, capsys):
        doc = {**instance_to_json_dict(build_params(2)), "p1": "9"}
        code, err, hashes = self.certify_bytes(tmp_path, capsys, doc)
        assert code == 1
        assert err == (
            "check instance.witness_primes_prime: FAIL (p=5, p1=9, p2=5)\n"
            "certificate FAILED at: instance.witness_primes_prime\n"
        )
        assert hashes == self.CERTIFY_GATE

    def test_certify_verbose_check_log(self, tmp_path, capsys):
        doc = instance_to_json_dict(build_params(4))
        code, err, hashes = self.certify_bytes(tmp_path, capsys, doc, "--depth", "3")
        assert code == 0 and len(err.splitlines()) == 27
        assert hashes == self.CERTIFY_VERBOSE_D4


class TestPipelineCommand:
    def test_degree_three(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.run(
            ["pipeline", "--degree", "3", "--depth", "2", "--primes", "200", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["certificate"]["verdict"]["pass"] is True
        assert report["frobenius"]["primes_used"] == 200

    def test_degree_nine_skips_frobenius(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.run(
            ["pipeline", "--degree", "9", "--depth", "2", "--primes", "100", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["frobenius"]["skipped"] is True

    @pytest.mark.parametrize("degree, depth", [(4, 8), (2, 3), (9, 2)])
    def test_over_cap_primes_refused_before_building(self, degree, depth, monkeypatch, capsys):
        # the sampler's admission comes before construct and certify, and
        # holds at d = 9 too, where no level is left to sample
        def unbuilt(*args, **kwargs):
            raise AssertionError("built for a request over the cap")

        monkeypatch.setattr(cli, "certify", unbuilt)
        monkeypatch.setattr(cli.construct_mod, "build_params", unbuilt)
        argv = ["pipeline", "--degree", str(degree), "--depth", str(depth), "--primes", "700000"]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "resource cap: 700000 primes requested, but only 664579 primes are below "
            "scan cap 10000000\n"
        )


class TestEnforcedTolerance:
    """A sample far from the law at an enforced shape fails the run: every
    prime reports the identity's type (1, 1, 1, 1), which the law at
    (2, 2) allows with mass 1/8, so the distance is 7/8."""

    @pytest.fixture(autouse=True)
    def identity_frobenius(self, monkeypatch):
        frobenius_module = importlib.import_module("odoni.frobenius")
        monkeypatch.setattr(frobenius_module, "cycle_type_mod_p", lambda target, p: (1, 1, 1, 1))

    @staticmethod
    def assert_failed(report, err):
        assert report["tolerance_enforced"] is True
        assert report["within_tolerance"] is False
        assert report["tv_distance"] == "7/8"
        assert "TV distance 7/8 exceeds the enforced tolerance 1/20" in err
        assert "Traceback" not in err

    def test_frobenius_exits_one(self, params_d2, tmp_path, capsys):
        out = tmp_path / "stats.json"
        argv = ["frobenius", "--params", params_d2, "--level", "2", "--primes", "2000"]
        assert cli.run(argv + ["--out", str(out)]) == 1
        self.assert_failed(json.loads(out.read_text()), capsys.readouterr().err)

    def test_pipeline_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["pipeline", "--degree", "2", "--depth", "2", "--primes", "2000"]
        assert cli.run(argv + ["--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["certificate"]["verdict"]["pass"] is True
        assert report["pass"] is False
        self.assert_failed(report["frobenius"], capsys.readouterr().err)


class TestNewtonPolyFile:
    def test_json_poly_input(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"coeffs": ["-5", "0", "1"]}))
        assert cli.run(["newton", "--poly-file", str(path), "--prime", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["segments"] == [{"slope": "-1/2", "length": 2}]

    def test_bare_integers_read_as_quoted(self, tmp_path, capsys):
        # bare coefficients, one past the int-string digit limit, give
        # the output of the quoted ones
        limit = sys.get_int_max_str_digits()
        outputs = []
        for quote in ("", '"'):
            path = tmp_path / "poly.json"
            coeffs = ", ".join(f"{quote}{c}{quote}" for c in ("-5", "0", "5" * 5000))
            path.write_text(f'{{"coeffs": [{coeffs}]}}')
            assert cli.run(["newton", "--poly-file", str(path), "--prime", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["segments"] == [{"slope": "0", "length": 2}]
        assert sys.get_int_max_str_digits() == limit


def _assert_json_numbers_small(node):
    # contract: no JSON number may exceed 53 bits
    if isinstance(node, bool) or node is None:
        return
    if isinstance(node, (int, float)):
        assert abs(int(node)) < 2**53, node
    elif isinstance(node, dict):
        for v in node.values():
            _assert_json_numbers_small(v)
    elif isinstance(node, list):
        for v in node:
            _assert_json_numbers_small(v)


class TestJsonNumberContract:
    def test_all_emitted_documents(self, tmp_path):
        params = tmp_path / "p.json"
        cert = tmp_path / "c.json"
        stats = tmp_path / "s.json"
        report = tmp_path / "r.json"
        assert cli.run(["construct", "--degree", "9", "--out", str(params)]) == 0
        assert cli.run(["certify", "--params", str(params), "--depth", "3", "--out", str(cert)]) == 0
        assert (
            cli.run(
                ["pipeline", "--degree", "3", "--depth", "2", "--primes", "150", "--out", str(report)]
            )
            == 0
        )
        inst = tmp_path / "p2.json"
        assert cli.run(["construct", "--degree", "2", "--out", str(inst)]) == 0
        assert (
            cli.run(
                [
                    "frobenius",
                    "--params",
                    str(inst),
                    "--level",
                    "2",
                    "--primes",
                    "150",
                    "--out",
                    str(stats),
                ]
            )
            == 0
        )
        for path in (params, cert, stats, report):
            _assert_json_numbers_small(json.loads(path.read_text()))
