"""Span recorder and layer probes for the benchmark's traced mode.

Standard library only, and nothing under ``src/`` changes: ``install``
rebinds each probed public function, at the name its callers look up,
to a wrapper that opens a span around the call. Spans (name, start,
end, parent) and counters live in memory and are written once, when
the job ends. ``self_times`` turns spans into per-layer self time: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class Recorder:
    """Spans and counters of one job, kept in memory until ``dump``."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self.finalizers: list = []  # run once, before the dump

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path: str):
        for finalize in self.finalizers:
            finalize()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans, "counts": self.counts}, fh)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name. Spans of one thread nest strictly,
    so the time children cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def span_calls(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def _bits(value) -> int:
    return abs(value).bit_length()


def _count_from(rec: Recorder, hook, value):
    """Add the increments ``hook(value)`` returns. A hook that no longer
    fits the program's types (after a refactor) counts nothing rather
    than failing the job."""
    if hook is None:
        return
    try:
        increments = hook(value)
    except (AttributeError, TypeError, IndexError):
        return
    for name, amount in increments.items():
        rec.count(name, amount)


def _wrap(rec: Recorder, span: str, fn, before=None, after=None, error=None):
    """``before(args)`` and ``after(result)`` return counter increments;
    ``error`` is (exception class, counter) for a failure worth counting."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _count_from(rec, before, args)
        index = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if error is not None and isinstance(exc, error[0]):
                rec.count(error[1])
            raise
        finally:
            rec.close(index)
        _count_from(rec, after, result)
        return result

    return wrapper


def _wrap_iterator(rec: Recorder, span: str, fn, each=None):
    """A generator factory whose every ``next()`` is a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = iter(fn(*args, **kwargs))
        while True:
            index = rec.open(span)
            try:
                value = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(index)
            _count_from(rec, each, value)
            yield value

    return wrapper


# (defining module, attribute, span name, modules whose globals callers
# look the name up in, wrapper keyword arguments). A name the program no
# longer has is skipped, so the probes outlive refactors; its metrics
# then read 0.
PROBES = [
    ("odoni.arith", "trial_factor", "arith.trial_factor", ["odoni.certify"],
     {"before": lambda a: {"arith.trial_factor.bits_in": _bits(a[0])}}),
    ("odoni.arith", "is_prime", "arith.is_prime",
     ["odoni.arith", "odoni.certify", "odoni.construct", "odoni.polymod"], {}),
    ("odoni.arith", "decimal_str", "arith.decimal_str",
     ["odoni.cli", "odoni.construct", "odoni.certify"],
     {"before": lambda a: {"arith.decimal_str.bits_in": _bits(a[0])}}),
    ("odoni.certify", "congruence_holds", "certify.depth_checks", ["odoni.certify"], {}),
    ("odoni.certify", "nonsquare_pair", "certify.depth_checks", ["odoni.certify"], {}),
    ("odoni.certify", "fn_coprimality_ok", "certify.depth_checks", ["odoni.certify"], {}),
    ("odoni.certify", "expected_e_n", "certify.depth_checks", ["odoni.certify"], {}),
    ("odoni.certify", "exhibit_odd_prime_q", "certify.exhibit_odd_prime_q",
     ["odoni.certify"], {}),
    ("odoni.certify", "certify", "certify.certify", ["odoni.cli"], {}),
    ("odoni.certify", "check_condition2", "certify.check_condition2", ["odoni.certify"], {}),
    ("odoni.certify", "certificate_to_json_dict", "certify.certificate_to_json_dict",
     ["odoni.cli"], {}),
    ("odoni.poly", "compose", "poly.compose",
     ["odoni.poly", "odoni.certify", "odoni.frobenius"],
     {"after": lambda r: {"poly.compose.degree_out": max(r.degree, 0)}}),
    ("odoni.poly", "eisenstein_at", "poly.eisenstein_at", ["odoni.certify"], {}),
    ("odoni.poly", "disc_iterate", "poly.disc_iterate",
     ["odoni.certify", "odoni.frobenius", "odoni.cli"],
     {"error": ("BitBudgetExceededError", "poly.disc_iterate.budget_exceeded")}),
    ("odoni.poly", "iterate", "poly.iterate", ["odoni.poly", "odoni.frobenius"], {}),
    ("odoni.polymod", "factor_mod_p", "polymod.factor_mod_p", ["odoni.frobenius"],
     {"before": lambda a: {"polymod.factor_mod_p.degree_in": a[0].degree}}),
    ("odoni.frobenius", "sample_distribution", "frobenius.sample_distribution",
     ["odoni.frobenius"],
     {"after": lambda r: {"frobenius.primes_used": r.used, "frobenius.primes_skipped": r.skipped}}),
    ("odoni.frobenius", "report_to_json_dict", "frobenius.report_to_json_dict",
     ["odoni.frobenius"], {}),
    ("odoni.permgroup", "leaf_type_distribution", "permgroup.leaf_type_distribution",
     ["odoni.permgroup", "odoni.frobenius"], {}),
    ("odoni.permgroup", "closure", "permgroup.closure", ["odoni.permgroup"],
     {"after": lambda r: {"permgroup.closure.elements": len(r)}}),
    ("odoni.permgroup", "gen_sd_check", "permgroup.gen_sd_check", ["odoni.permgroup"], {}),
    ("odoni.construct", "build_params", "construct.build_params", ["odoni.construct"], {}),
    ("odoni.construct", "instance_from_json_dict", "construct.instance_from_json_dict",
     ["odoni.construct"], {}),
]


def install(rec: Recorder):
    """Rebind every probed function at the names its callers use.

    ``odoni.certify`` the package attribute is the function, which
    shadows the submodule, so modules are taken from ``import_module``.
    """
    for module_name, attr, span, callers, options in PROBES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        options = dict(options)
        if "error" in options:
            class_name, counter = options["error"]
            error_class = getattr(module, class_name, None)
            options["error"] = None if error_class is None else (error_class, counter)
        wrapper = _wrap(rec, span, original, **options)
        for caller in callers:
            namespace = importlib.import_module(caller)
            if getattr(namespace, attr, None) is original:
                setattr(namespace, attr, wrapper)

    certify_mod = importlib.import_module("odoni.certify")
    original = getattr(certify_mod, "fn_sequence", None)
    if original is not None:
        certify_mod.fn_sequence = _wrap_iterator(
            rec,
            "certify.fn_sequence",
            original,
            each=lambda v: {"certify.fn_sequence.bits": v.bits},
        )

    polymod = importlib.import_module("odoni.polymod")
    raw = vars(getattr(polymod, "PolyModP", object)).get("from_rational_coeffs")
    if isinstance(raw, classmethod):
        polymod.PolyModP.from_rational_coeffs = classmethod(
            _wrap(rec, "polymod.from_rational_coeffs", raw.__func__)
        )

    # the exact law is memoized per process; misses are the enumerations
    # a job actually paid for
    permgroup = importlib.import_module("odoni.permgroup")
    law = getattr(permgroup, "leaf_type_distribution", None)
    law = getattr(law, "__wrapped__", law)
    if hasattr(law, "cache_info"):
        rec.finalizers.append(
            lambda: rec.count("permgroup.leaf_type_distribution.misses", law.cache_info().misses)
        )
