"""Workload job lists, their seeded inputs, and the per-job output checks.

A job is one ``odoni`` CLI invocation. Certify and pipeline inputs are
fixed per degree (``inputs/params_d*.json`` and ``pipeline --degree``),
so the seed does not change them. The seed picks each ``frobenius``
scan window (``--start``) and each ``group-check`` generator set; every
generated set satisfies the S_d generation hypotheses by construction.

Checks read only fields whose meaning the program documents and never
the schema string, so a schema bump that keeps those fields passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

CERTIFY_WITNESS = [(2, 12), (3, 9), (5, 5), (7, 4), (9, 4)]
CERTIFY_DEEP = [(2, 15), (3, 11), (6, 5)]
FROBENIUS = [(2, 2, 2000), (3, 1, 2000), (2, 3, 500), (8, 1, 200)]  # (d, level, primes)
GROUP_CHECK = [(8, 5), (8, 7), (7, 4), (7, 6)]  # (d, m)
PIPELINE = [(10, 3)]  # (degree, depth)

# a tiny list that runs every job kind and check in seconds (smoke.py)
SMOKE_WITNESS = [(2, 3)]
SMOKE_DEEP = [(3, 2)]
SMOKE_FROBENIUS = [(3, 1, 100)]
SMOKE_GROUP = [(5, 3)]
SMOKE_PIPELINE = [(2, 2)]

# frobenius --start is drawn from [START_LO, START_HI]: narrow, so the
# per-prime cost (which grows with log p) barely depends on the seed
START_LO, START_HI = 1000, 11000


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Job:
    name: str  # unique within a job list; names the job's files
    argv: list[str]  # odoni CLI arguments; the harness appends --out
    # output -> failure reason or None; None for a job that writes no
    # output (the set-up probe)
    check: Optional[Callable[[dict], Optional[str]]]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_certificate(
    cert: dict, depth: int, fn_mod_p: list[int], exhibited_q: Optional[list] = None
) -> Optional[str]:
    verdict = cert.get("verdict", {})
    if verdict.get("pass") is not True:
        return f"verdict is not pass (first failure {verdict.get('first_failure')})"
    if verdict.get("claimed_depths") != list(range(1, depth + 1)):
        return f"claimed depths {verdict.get('claimed_depths')} != 1..{depth}"
    records = sorted(cert.get("records", []), key=lambda r: r["n"])
    if [r["n"] for r in records] != list(range(1, depth + 1)):
        return "records do not cover depths 1..N"
    for rec in records:
        n = rec["n"]
        if int(rec["F_n_mod_p"]) != fn_mod_p[n - 1]:
            return f"depth {n}: F_n_mod_p {rec['F_n_mod_p']} != recorded {fn_mod_p[n - 1]}"
        if rec.get("nonsquare_F") is not True:
            return f"depth {n}: nonsquare_F is not true"
        if n <= 3 and rec.get("eisenstein_ok") is not True:
            return f"depth {n}: eisenstein_ok is not true"
        if exhibited_q is not None:
            q = (rec.get("exhibited_q") or {}).get("q")
            if q != exhibited_q[n - 1]:
                return f"depth {n}: exhibited q {q} != recorded {exhibited_q[n - 1]}"
    return None


def check_frobenius(report: dict, primes: int) -> Optional[str]:
    used = report.get("primes_used")
    if used != primes:
        return f"primes_used {used} != requested {primes}"
    total = sum(c["count"] for c in report.get("counts", []))
    if total != used:
        return f"type counts sum to {total}, not primes_used {used}"
    law = {tuple(e["type"]) for e in report.get("exact", [])}
    for c in report.get("counts", []):
        if tuple(c["type"]) not in law:
            return f"observed type {c['type']} is not in the exact law"
    return None


def check_group(report: dict, d: int) -> Optional[str]:
    if report.get("conclusion_holds") is not True:
        return "conclusion_holds is not true"
    if report.get("group_order") != math.factorial(d):
        return f"group order {report.get('group_order')} != {d}!"
    return None


def check_pipeline(report: dict, depth: int, primes: int, fn_mod_p: list[int]) -> Optional[str]:
    if report.get("pass") is not True:
        return "pipeline pass flag is not true"
    reason = check_certificate(report.get("certificate", {}), depth, fn_mod_p)
    if reason is not None:
        return reason
    frob = report.get("frobenius", {})
    if frob.get("skipped"):
        return None
    return check_frobenius(frob, primes)


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def params_path(d: int) -> str:
    return str(INPUTS / f"params_d{d}.json")


def certify_jobs(pairs, expected: dict, effort: Optional[int] = None) -> list[Job]:
    jobs = []
    for d, depth in pairs:
        argv = ["certify", "--params", params_path(d), "--depth", str(depth)]
        qs = None
        if effort is None:
            qs = expected["exhibited_q"][str(d)]
        else:
            argv += ["--exhibit-effort", str(effort)]
        mods = expected["F_n_mod_p"][str(d)]
        jobs.append(
            Job(
                f"certify-d{d}-N{depth}",
                argv,
                lambda out, depth=depth, mods=mods, qs=qs: check_certificate(out, depth, mods, qs),
            )
        )
    return jobs


def frobenius_jobs(shapes, rng: random.Random) -> list[Job]:
    jobs = []
    for d, level, primes in shapes:
        start = rng.randint(START_LO, START_HI)
        argv = ["frobenius", "--params", params_path(d), "--level", str(level),
                "--primes", str(primes), "--start", str(start)]
        jobs.append(
            Job(f"frobenius-d{d}-n{level}", argv, lambda out, primes=primes: check_frobenius(out, primes))
        )
    return jobs


def generator_set(d: int, m: int, rng: random.Random) -> dict:
    """g: a random d-cycle, a transposition of two points adjacent on it
    (together they generate S_d) and a random permutation; h: an m-cycle
    on the head {1..m}. Images are 1-based, as group-check reads them."""
    order = list(range(d))
    rng.shuffle(order)
    cycle = [0] * d
    for i, x in enumerate(order):
        cycle[x] = order[(i + 1) % d]
    swap = list(range(d))
    a, b = order[0], order[1]
    swap[a], swap[b] = b, a
    extra = list(range(d))
    rng.shuffle(extra)
    head = list(range(m))
    rng.shuffle(head)
    h = list(range(d))
    for i, x in enumerate(head):
        h[x] = head[(i + 1) % m]

    def one_based(images):
        return [i + 1 for i in images]

    return {
        "d": d,
        "m": m,
        "g_gens": [one_based(swap), one_based(cycle), one_based(extra)],
        "h_gens": [one_based(h)],
    }


def group_jobs(shapes, rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for k, (d, m) in enumerate(shapes):
        path = workdir / f"generators-{k}-d{d}-m{m}.json"
        path.write_text(json.dumps(generator_set(d, m, rng)) + "\n", encoding="utf-8")
        jobs.append(
            Job(f"group-check-{k}-d{d}-m{m}", ["group-check", "--file", str(path)],
                lambda out, d=d: check_group(out, d))
        )
    return jobs


def pipeline_jobs(shapes, expected: dict, primes: int = 2000) -> list[Job]:
    jobs = []
    for degree, depth in shapes:
        mods = expected["F_n_mod_p"][str(degree)]
        argv = ["pipeline", "--degree", str(degree), "--depth", str(depth), "--primes", str(primes)]
        jobs.append(
            Job(
                f"pipeline-d{degree}-N{depth}",
                argv,
                lambda out, depth=depth, mods=mods: check_pipeline(out, depth, primes, mods),
            )
        )
    return jobs


WORKLOADS = ("certify-witness", "certify-deep", "group-oracles", "pipeline-d10")


def build(workload: str, seed: int, workdir: Path, expected: dict) -> list[Job]:
    rng = random.Random(seed)
    if workload == "certify-witness":
        return certify_jobs(CERTIFY_WITNESS, expected)
    if workload == "certify-deep":
        return certify_jobs(CERTIFY_DEEP, expected, effort=1)
    if workload == "group-oracles":
        return frobenius_jobs(FROBENIUS, rng) + group_jobs(GROUP_CHECK, rng, workdir)
    if workload == "pipeline-d10":
        return pipeline_jobs(PIPELINE, expected)
    if workload == "smoke":
        return (
            certify_jobs(SMOKE_WITNESS, expected)
            + certify_jobs(SMOKE_DEEP, expected, effort=1)
            + frobenius_jobs(SMOKE_FROBENIUS, rng)
            + group_jobs(SMOKE_GROUP, rng, workdir)
            + pipeline_jobs(SMOKE_PIPELINE, expected, primes=100)
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
