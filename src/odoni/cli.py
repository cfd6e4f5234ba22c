"""Command-line surface: construct, certify, disc, newton, group-check,
frobenius, and pipeline subcommands with JSON input and output.

Exit codes: 0 on success or a passing verdict, 1 when a verification
check fails (the violated relation is named on stderr), 2 for usage or
input errors. JSON always goes to --out or stdout; human-readable
progress and the --verbose check log go to stderr, so piped output
stays parseable. Every resource cap that is hit raises
``arith.CapExceededError`` (a certify depth past the F_n bit cap, a
discriminant past its bit budget, too few good primes below the scan
cap, a prime search past its cap) and exits 2, not 1: it is not a
failed relation. Nine caps are checked before the value they bound is
built: a certify or pipeline depth past
``certify.deepest_depth_in_cap`` is a resource cap, as are a
``disc --params`` level whose bound in ``poly.disc_levels`` exceeds
``poly.DEFAULT_BIT_BUDGET`` (both bound the critical orbit's growth
one ``poly.orbit_bits_step`` per depth, on bit lengths alone), an
even-degree construct or pipeline whose b is bounded over the same
budget from d and the bits of s and t, an even-case params file whose
b is bounded so before its structural check forms s^(d-1) (one bound,
``construct.even_denominator``), a trinomial discriminant whose bound
``poly.disc_trinomial_bits`` exceeds the budget (checked by
``poly.disc_trinomial`` itself), a frobenius or pipeline --primes
above ``frobenius.PRIMES_BELOW_SCAN_CAP`` and an --exhibit-effort
above ``certify.EXHIBIT_EFFORT_CAP``; a group-check degree above
``permgroup.MAX_CLOSURE_DEGREE`` is an input error, as is a rational
entry of more than ``arith.RATIONAL_BIT_CAP`` bits, estimated from
the literal's digits and exponent: every rational from outside
(``newton`` coefficients, ``disc --trinomial`` A, B, C, and a params
file's x0 and b) is read by ``arith._rationals``, a bare JSON integer
in a params or poly file as its digit string. An iterate
discriminant of a shape other than m = d-1 or m = d-2 is an input
error, as is a non-finite number where a file needs an integer. The
caps on arguments (depth, --exhibit-effort, --primes, the sampled
level) are decided before the instance is judged, so an over-cap run
exits 2 whatever its instance; pipeline decides --primes first of all.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct as construct_mod
from . import frobenius as frobenius_mod
from . import newton as newton_mod
from . import permgroup
from .arith import CapExceededError, _rationals
from .certify import (
    DEFAULT_DEPTH,
    EXHIBIT_EFFORT_CAP,
    EXHIBIT_PRIME_BOUND,
    FN_BIT_CAP,
    Certificate,
    certificate_to_json_dict,
    certify,
    deepest_depth_in_cap,
)
from .construct import _frac_str
from .poly import Trinomial, disc_iterate, disc_trinomial

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _emit(payload: dict, out_path: str | None):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _log(message: str):
    print(message, file=sys.stderr)


def _load_params(path: str) -> construct_mod.IterInstance:
    with open(path, encoding="utf-8") as fh:
        # a bare integer stays a digit string, so a long one meets the
        # same readers (and caps) as a quoted one, not json's int()
        data = json.load(fh, parse_int=str)
    return construct_mod.instance_from_json_dict(data)


def _cmd_construct(args) -> int:
    inst = construct_mod.build_params(args.degree, cap=args.cap)
    if args.depth_hint is not None:
        deepest = deepest_depth_in_cap(inst)
        if args.depth_hint > deepest:
            _log(
                f"note: depth {args.depth_hint} is past depth {deepest}, the deepest "
                f"whose F_n is bounded within the {FN_BIT_CAP}-bit cap"
            )
    _emit(construct_mod.instance_to_json_dict(inst), args.out)
    return EXIT_PASS


def _print_verbose_checks(cert: Certificate):
    for check in cert.checks:
        status = "ok" if check.ok else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        _log(f"check {check.name}: {status}{detail}")


def _cmd_certify(args) -> int:
    inst = _load_params(args.params)
    cert = certify(
        inst, depth=args.depth, exhibit_effort=args.exhibit_effort
    )
    if args.verbose:
        _print_verbose_checks(cert)
    _emit(certificate_to_json_dict(cert, full_values=args.full_values), args.out)
    if not cert.verdict_pass:
        _log(f"certificate FAILED at: {cert.first_failure}")
        return EXIT_CHECK_FAILED
    _log(f"certificate passes to depth {cert.depth}")
    return EXIT_PASS


def _cmd_disc(args) -> int:
    if args.trinomial is not None:
        parts = args.trinomial.replace(",", " ").split()
        if len(parts) != 5:
            raise ValueError("--trinomial expects 5 entries: A,B,C,d,m")
        a, b, c = _rationals(parts[:3], "--trinomial")
        d, m = int(parts[3]), int(parts[4])
        value = disc_trinomial(Trinomial(a, b, c, d, m))
        _emit(
            {
                "schema": "odoni-disc-v1",
                "kind": "trinomial",
                "A": _frac_str(a),
                "B": _frac_str(b),
                "C": _frac_str(c),
                "d": d,
                "m": m,
                "value": _frac_str(value),
            },
            args.out,
        )
        return EXIT_PASS
    inst = _load_params(args.params)
    value = disc_iterate(inst, args.level)
    _emit(
        {
            "schema": "odoni-disc-v1",
            "kind": "iterate",
            "level": args.level,
            "value": _frac_str(value),
        },
        args.out,
    )
    return EXIT_PASS


def _cmd_newton(args) -> int:
    if args.poly_file is not None:
        with open(args.poly_file, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=str)  # as in _load_params
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise ValueError(f'{args.poly_file}: expected {{"coeffs": [...]}}')
        coeffs = _rationals(data["coeffs"], "--poly-file coeffs")
    else:
        coeffs = _rationals(args.coeffs.replace(",", " ").split(), "--coeffs")
    polygon = newton_mod.newton_polygon(coeffs, args.prime)
    _emit(
        {
            "schema": "odoni-newton-v1",
            "prime": args.prime,
            "vertices": [[i, str(v)] for i, v in polygon.vertices],
            "segments": [
                {"slope": _frac_str(seg.slope), "length": seg.length}
                for seg in polygon.segments
            ],
        },
        args.out,
    )
    return EXIT_PASS


def _perm_from_images(images, d: int) -> permgroup.Perm:
    """A Perm from a JSON list of d 1-based images."""
    if not isinstance(images, list) or len(images) != d or any(type(i) is not int for i in images):
        raise ValueError(f"generator {images!r} is not a list of {d} integer images")
    return permgroup.Perm([i - 1 for i in images])


def _cmd_group_check(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        d, m = int(data["d"]), int(data["m"])
        g_gens = [_perm_from_images(images, d) for images in data["g_gens"]]
        h_gens = [_perm_from_images(images, d) for images in data.get("h_gens", [])]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed generator JSON: {exc}") from exc
    verdict = permgroup.gen_sd_check(d, m, g_gens, h_gens)
    _emit(
        {
            "schema": "odoni-group-check-v1",
            "d": d,
            "m": m,
            "hypotheses": verdict.hypotheses,
            "hypotheses_hold": verdict.hypotheses_hold,
            "conclusion_holds": verdict.conclusion_holds,
            "group_order": verdict.group_order,
        },
        args.out,
    )
    if not verdict.hypotheses_hold:
        failed = [k for k, v in verdict.hypotheses.items() if not v]
        _log(f"group-check hypotheses FAILED: {', '.join(failed)}")
        return EXIT_CHECK_FAILED
    if not verdict.conclusion_holds:
        _log(
            "group-check: hypotheses hold but the generated group is NOT the full "
            "symmetric group, contradicting the generation criterion"
        )
        return EXIT_CHECK_FAILED
    _log(f"group-check passes: the generated group is S_{d} (order {verdict.group_order})")
    return EXIT_PASS


def _cmd_frobenius(args) -> int:
    inst = _load_params(args.params)
    sample = frobenius_mod.sample_distribution(inst, args.level, args.primes, start=args.start)
    _emit(frobenius_mod.report_to_json_dict(sample), args.out)
    if _tolerance_failed(sample):
        return EXIT_CHECK_FAILED
    _log(f"frobenius: TV distance {float(sample.tv):.4f} over {sample.used} primes")
    return EXIT_PASS


def _tolerance_failed(sample: frobenius_mod.SampleResult) -> bool:
    """Whether the sample misses an enforced tolerance, named on stderr."""
    failed = sample.within_tolerance is False
    if failed:
        _log(f"frobenius: TV distance {sample.tv} exceeds the enforced tolerance {frobenius_mod.TV_TOLERANCE}")
    return failed


def _cmd_pipeline(args) -> int:
    # the sampler's admission comes first: an over-cap --primes is
    # refused before anything is constructed or certified
    level = frobenius_mod.pipeline_level(args.degree, args.depth, args.primes)
    inst = construct_mod.build_params(args.degree, cap=args.cap)
    _log(f"constructed instance for degree {args.degree} ({inst.parity_case})")
    cert = certify(inst, depth=args.depth)
    if args.verbose:
        _print_verbose_checks(cert)
    _log(
        "certificate "
        + ("passes" if cert.verdict_pass else f"FAILED at {cert.first_failure}")
    )
    frob_fail = False
    if level is None:
        frob_json = {"skipped": True, "reason": frobenius_mod.skip_reason(args.depth)}
        _log("frobenius section skipped: " + frob_json["reason"])
    else:
        sample = frobenius_mod.sample_distribution(inst, level, args.primes, start=args.start)
        frob_json = frobenius_mod.report_to_json_dict(sample)
        _log(f"frobenius at level {level}: TV {float(sample.tv):.4f} over {sample.used} primes")
        frob_fail = _tolerance_failed(sample)
    overall = cert.verdict_pass and not frob_fail
    _emit(
        {
            "schema": "odoni-pipeline-v1",
            "degree": args.degree,
            "depth": args.depth,
            "params": construct_mod.instance_to_json_dict(inst),
            "certificate": certificate_to_json_dict(cert),
            "frobenius": frob_json,
            "pass": overall,
        },
        args.out,
    )
    return EXIT_PASS if overall else EXIT_CHECK_FAILED


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odoni",
        description=(
            "Construct trinomial instances over Q and certify that their "
            "iterated preimages realize full wreath-product Galois groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certified parameter set for a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--depth-hint", type=_positive_int, default=None)
    p.add_argument("--cap", type=int, default=10**6, help="prime search cap")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("certify", help="verify all hypotheses to a depth")
    p.add_argument("--params", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--full-values", action="store_true", help="inline huge integers")
    p.add_argument(
        "--exhibit-effort",
        type=_positive_int,
        default=EXHIBIT_PRIME_BOUND,
        help=(
            "bound on the primes searched for the optional explicit witness "
            f"prime (at most {EXHIBIT_EFFORT_CAP})"
        ),
    )
    p.add_argument("--verbose", action="store_true", help="echo each checked relation")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("disc", help="trinomial or iterate discriminants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--trinomial",
        metavar="A,B,C,d,m",
        help="discriminant of A x^d + B x^m + C; pass as --trinomial=1,-1,1,3,2",
    )
    group.add_argument("--params", help="params JSON for the iterate discriminant")
    p.add_argument("--level", type=int, default=1, help="iterate level n")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_disc)

    p = sub.add_parser("newton", help="Newton polygon of a polynomial at a prime")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeffs",
        help='comma-separated ascending coefficients, rationals as num/den, pass as --coeffs=-1/49,0,1 when the first entry is negative',
    )
    group.add_argument(
        "--poly-file",
        help='JSON file {"coeffs": ["c0", "c1", ...]} in ascending degree',
    )
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_newton)

    p = sub.add_parser("group-check", help="S_d generation criterion from a generator file")
    p.add_argument("--file", required=True, help="JSON with d, m, g_gens, h_gens (1-based images)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_group_check)

    p = sub.add_parser("frobenius", help="cycle-type statistics against the exact law")
    p.add_argument("--params", required=True)
    p.add_argument("--level", type=_positive_int, required=True)
    p.add_argument("--primes", type=_positive_int, default=2000)
    p.add_argument("--start", type=int, default=frobenius_mod.DEFAULT_SCAN_START)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("pipeline", help="construct, certify, and sample in one run")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--primes", type=_positive_int, default=2000)
    p.add_argument("--start", type=int, default=frobenius_mod.DEFAULT_SCAN_START)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits too
        return EXIT_USAGE if exc.code != 0 else EXIT_PASS
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError) as exc:
        # json.JSONDecodeError is a ValueError; a failed relation comes
        # back from certify() as a verdict, never as an exception
        _log(f"input error: {exc}")
        return EXIT_USAGE
    except CapExceededError as exc:
        # a cap bounds the work asked for; hitting it proves nothing
        _log(f"resource cap: {exc}")
        return EXIT_USAGE
    except (construct_mod.ConstructError, frobenius_mod.UnrealizableTypeError) as exc:
        _log(f"check failed: {exc}")
        return EXIT_CHECK_FAILED


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
