"""Fuzz the CLI contract: for any input, ``cli.run`` returns 0, 1 or 2
and never lets a traceback out.

Inputs are malformed params files (keys missing, values non-numeric,
b = 0, t = 0, non-prime witnesses, d from 0 to 12), malformed
group-check files (d from 2 to 12 and one past the degree cap),
out-of-range --depth/--level/--primes/--start/--exhibit-effort values, and malformed `newton` coefficients (inline
or in a file) and `disc --trinomial` entries with degrees up to 10^6,
whose oversized values the CLI's caps refuse before building them.
Sizes are bounded so the whole module runs in seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from odoni import cli
from odoni.certify import EXHIBIT_EFFORT_CAP
from odoni.construct import build_params, instance_to_json_dict
from odoni.permgroup import MAX_CLOSURE_DEGREE

BASES = [instance_to_json_dict(build_params(d)) for d in (2, 3)]
KEYS = ["d", "m", "case", "s", "t", "x0", "b", "p", "p1", "p2"]
DROP = "<drop>"

junk = st.one_of(
    st.sampled_from(["x", "", "1/0", "nan", "inf", "2.5", "-", "9" * 600]),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(0, 3), max_size=2),
)
# small integers cover d in 0..12, b = 0, t = 0 and non-prime witnesses
numbers = st.integers(-3, 12)
param_values = st.one_of(numbers.map(str), st.just(DROP), numbers, junk)


@st.composite
def param_docs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)
    doc = dict(draw(st.sampled_from(BASES)))
    for key, value in draw(st.dictionaries(st.sampled_from(KEYS), param_values, max_size=3)).items():
        if value == DROP:
            del doc[key]
        else:
            doc[key] = value
    return doc


@st.composite
def group_docs(draw):
    """Mostly well-formed generator files of degree 2..12 or one above
    the degree cap, then a few fields dropped or replaced by junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)
    d = draw(st.one_of(st.integers(2, 12), st.just(MAX_CLOSURE_DEGREE + 1)))
    perms = st.permutations(list(range(1, d + 1)))
    # (1 2) and the d-cycle generate S_d; the head cycle fixes the tail
    swap, cycle = [2, 1] + list(range(3, d + 1)), list(range(2, d + 1)) + [1]
    m = draw(st.one_of(st.integers(d // 2 + 1, max(d // 2 + 1, d - 1)), st.integers(-1, d + 1)))
    head = list(range(2, m + 1)) + [1] + list(range(m + 1, d + 1)) if 1 <= m <= d else swap
    doc = {
        "d": d,
        "m": m,
        "g_gens": draw(st.lists(st.one_of(perms, st.just(swap), st.just(cycle)), min_size=1, max_size=3)),
        "h_gens": draw(st.lists(st.one_of(perms, st.just(head)), max_size=2)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        replacement = draw(st.one_of(st.just(DROP), junk, st.integers(-1, 9),
                                     st.lists(st.lists(st.integers(-1, 8), max_size=8), max_size=2)))
        if replacement == DROP:
            del doc[key]
        else:
            doc[key] = replacement
    return doc


depths = st.integers(-2, 3)
levels = st.integers(-1, 3)
prime_counts = st.integers(-2, 12)
efforts = st.one_of(
    st.integers(-2, 300),
    st.sampled_from([-100000, 10**4, EXHIBIT_EFFORT_CAP - 1, EXHIBIT_EFFORT_CAP + 1]),
)
starts = st.one_of(st.integers(-50, 3000), st.sampled_from([10**7 - 5, 10**7, 10**12]))

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code


def write(workdir, name, doc):
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(doc=param_docs(), command=st.sampled_from(["certify", "disc", "frobenius"]), depth=depths,
       level=levels, primes=prime_counts, start=starts)
@example(doc={**BASES[1], "b": "0"}, command="frobenius", depth=1, level=1, primes=10, start=1000)
@example(doc={**BASES[0], "t": "0"}, command="certify", depth=1, level=1, primes=10, start=1000)
@example(doc={**BASES[0], "p1": "9"}, command="certify", depth=1, level=1, primes=10, start=1000)
# defects this test found: an IndexError building f with d < 1, a
# TypeError checking the even-case relation with d = 0, a
# ZeroDivisionError in condition (2c) with m = d
@example(doc={**BASES[1], "d": -1}, command="disc", depth=1, level=3, primes=10, start=1000)
@example(doc={**BASES[0], "d": False}, command="frobenius", depth=1, level=2, primes=12, start=1000)
@example(doc={**BASES[1], "d": 8, "m": 8}, command="certify", depth=2, level=1, primes=10, start=1000)
def test_params_files(workdir, doc, command, depth, level, primes, start):
    path = write(workdir, "params.json", doc)
    if command == "certify":
        argv = ["certify", "--params", path, "--depth", str(depth), "--exhibit-effort", "50"]
    elif command == "disc":
        argv = ["disc", "--params", path, "--level", str(level)]
    else:
        argv = ["frobenius", "--params", path, "--level", str(level), "--primes", str(primes),
                "--start", str(start)]
    run_cli(argv)


@FUZZ
@given(doc=group_docs())
@example(doc={"d": 3, "m": 2, "g_gens": [5]})
def test_group_check_files(workdir, doc):
    run_cli(["group-check", "--file", write(workdir, "gens.json", doc)])


@FUZZ
@given(command=st.sampled_from(["certify", "frobenius", "pipeline"]), degree=st.integers(-1, 4),
       depth=depths, level=levels, primes=prime_counts, start=starts, effort=efforts)
# a negative effort once made trial division call a composite prime
@example(command="certify", degree=2, depth=1, level=1, primes=10, start=1000, effort=-100000)
def test_out_of_range_flags(workdir, command, degree, depth, level, primes, start, effort):
    if command == "pipeline":
        run_cli(["pipeline", "--degree", str(degree), "--depth", str(depth), "--primes", str(primes),
                 "--start", str(start)])
        return
    path = write(workdir, "golden.json", BASES[0])
    if command == "certify":
        run_cli(["certify", "--params", path, "--depth", str(depth), "--exhibit-effort", str(effort)])
    else:
        run_cli(["frobenius", "--params", path, "--level", str(level), "--primes", str(primes),
                 "--start", str(start)])


# coefficient entries as the command line spells them
rational_texts = st.one_of(
    st.sampled_from(["1/0", "x", "", "nan", "inf", "2.5", "-", "-1/49", "1e3", "9" * 600]),
    st.integers(-30, 30).map(str),
)


@st.composite
def poly_docs(draw):
    """--poly-file contents: mostly {"coeffs": [...]}, entries as JSON
    strings, numbers or junk; sometimes junk at either level."""
    if draw(st.integers(0, 5)) == 0:
        return draw(junk)
    entries = st.one_of(rational_texts, st.integers(-30, 30), junk)
    return {"coeffs": draw(st.one_of(st.lists(entries, max_size=6), junk))}


@FUZZ
@given(coeffs=st.lists(rational_texts, max_size=6), doc=poly_docs(), from_file=st.booleans(),
       prime=st.integers(-3, 30))
@example(coeffs=["1/0", "1"], doc={}, from_file=False, prime=5)
@example(coeffs=[], doc={"coeffs": [None, 1]}, from_file=True, prime=5)
@example(coeffs=[], doc={"coeffs": 5}, from_file=True, prime=5)
@example(coeffs=[], doc=[1, 2], from_file=True, prime=5)
# an empty --poly-file= once fell through to the --coeffs branch
@example(coeffs=[], doc=None, from_file=True, prime=5)
# once hung: a 1 Mbit integer stripped of one factor 5 per division
@example(coeffs=["1e300000", "1"], doc={}, from_file=False, prime=5)
def test_newton_inputs(workdir, coeffs, doc, from_file, prime):
    if from_file:
        source = ["--poly-file=" + ("" if doc is None else write(workdir, "poly.json", doc))]
    else:
        source = ["--coeffs=" + ",".join(coeffs)]
    run_cli(["newton", *source, "--prime", str(prime)])


@FUZZ
# d and m reach 10^6: the discriminant's bits are bounded before it is
# built, so a degree over the bit budget exits 2 at once
@given(entries=st.lists(st.one_of(rational_texts.filter(lambda text: len(text) < 600),
                                  st.integers(-3, 10**6).map(str)), max_size=6))
@example(entries=["1/0", "1", "1", "3", "2"])
# an empty --trinomial= once fell through to the params branch
@example(entries=[])
# once ran for 18.5 s and wrote 6 MB
@example(entries=["1", "1", "1", "1000000", "1"])
def test_disc_trinomial_inputs(entries):
    run_cli(["disc", "--trinomial=" + ",".join(entries)])


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["newton", "--coeffs=1/0,1", "--prime", "5"], None),
        (["disc", "--trinomial=1/0,1,1,3,2"], None),
        (["newton", "--prime", "5"], {"coeffs": [None, 1]}),
        (["newton", "--prime", "5"], {"coeffs": 5}),
        (["newton", "--prime", "5"], [1, 2]),
    ],
)
def test_malformed_rationals_are_input_errors(workdir, argv, doc):
    # each of these once ended in a traceback with exit 1
    if doc is not None:
        argv = [*argv, "--poly-file", write(workdir, "poly.json", doc)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 2 and "input error" in err.getvalue(), (argv, err.getvalue())
