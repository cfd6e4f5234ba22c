"""odoni benchmark: a closed loop with one client and one CLI job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, as a table

Each job is one ``odoni`` CLI invocation in its own interpreter, started
from the ``src/`` tree beside this directory through ``perfbench/job.py``,
so per-process caches start cold as they do for a user. At most two
processes are alive: this one and the current job. Every job's exit
code, stderr and output are checked (see workloads.py).

Untraced (``--trace 0``): after a few set-up probes, the job list is
cycled until ``--seconds`` would be exceeded (at least one full pass).
Reports the end-to-end metrics:
  wall_s       sum over the job list of each job's median time from its
               first call into odoni.cli.run to its exit
  setup_s      median CPU time a job process uses before its first call
               into odoni.cli.run (interpreter start plus ``import
               odoni``), over the set-up probes and every job of the run,
               times the number of jobs in the list
  peak_rss_mb  largest peak resident set of any job process

Traced (``--trace 1``): pairs of passes, one untraced and one with the
span probes of spans.py installed, until ``--seconds`` would be exceeded
(at least one pair). Reports the per-layer metrics (per pass), the
tracing overhead, and checks that traced outputs are byte-identical to
the untraced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

SETUP_PROBES = 10
# a run ends within this many seconds; a job still alive then is killed
# and counts as failed
HARD_LIMIT_S = 170

SELF_TIMED = [
    "arith.trial_factor",
    "arith.is_prime",
    "arith.decimal_str",
    "certify.fn_sequence",
    "certify.depth_checks",
    "certify.exhibit_odd_prime_q",
    "certify.certify",
    "certify.check_condition2",
    "certify.certificate_to_json_dict",
    "poly.compose",
    "poly.eisenstein_at",
    "poly.disc_iterate",
    "poly.iterate",
    "polymod.factor_mod_p",
    "polymod.from_rational_coeffs",
    "frobenius.sample_distribution",
    "frobenius.report_to_json_dict",
    "permgroup.leaf_type_distribution",
    "permgroup.closure",
    "permgroup.gen_sd_check",
    "construct.build_params",
    "construct.instance_from_json_dict",
    "cli.run",
]
CALL_COUNTED = [
    "arith.trial_factor",
    "arith.is_prime",
    "certify.exhibit_odd_prime_q",
    "poly.compose",
    "poly.disc_iterate",
    "polymod.factor_mod_p",
]
# counter name -> unit
COUNTERS = {
    "arith.trial_factor.bits_in": "bits",
    "arith.decimal_str.bits_in": "bits",
    "certify.fn_sequence.bits": "bits",
    "poly.compose.degree_out": "count",
    "poly.disc_iterate.budget_exceeded": "count",
    "polymod.factor_mod_p.degree_in": "count",
    "frobenius.primes_used": "count",
    "frobenius.primes_skipped": "count",
    "permgroup.leaf_type_distribution.misses": "count",
    "permgroup.closure.elements": "count",
}


@dataclass
class Outcome:
    job: Job
    traced: bool
    setup_s: float  # wall time from spawn to the first call into odoni.cli.run
    setup_cpu_s: float  # CPU time the job process used in that interval
    wall_s: float  # wall time from that call to the job's exit
    rss_mb: float
    failure: Optional[str] = None
    output: Optional[dict] = None
    output_bytes: Optional[bytes] = None
    trace: Optional[dict] = field(default=None, repr=False)


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("ODONI_SEED", None)  # outputs must not depend on the caller's shell
    return env


def run_job(job: Job, workdir: Path, traced: bool, kill_at: float, env: dict) -> Outcome:
    tag = job.name + (".traced" if traced else "")
    out, stamp = workdir / f"{tag}.json", workdir / f"{tag}.stamp"
    trace_file, err_file = workdir / f"{tag}.trace", workdir / f"{tag}.stderr"
    for path in (out, stamp, trace_file):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(JOB), str(stamp), str(trace_file) if traced else "-", "--", *job.argv]
    if job.check is not None:
        argv += ["--out", str(out)]
    with open(err_file, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(max(kill_at - spawn, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = err_file.read_text(encoding="utf-8", errors="replace")

    ready, setup_cpu = end, usage.ru_utime + usage.ru_stime
    failure = None
    if stamp.exists():
        info = json.loads(stamp.read_text(encoding="utf-8"))
        ready, setup_cpu = info["ready"], info["setup_cpu"]
        if not Path(info["odoni"]).resolve().is_relative_to(SRC.resolve()):
            failure = f"imported odoni from {info['odoni']}, not from {SRC}"
    outcome = Outcome(job, traced, ready - spawn, setup_cpu, end - ready, usage.ru_maxrss / 1024.0)
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        failure = f"exit code {code}: {last[0]}"
    elif "Traceback (most recent call last)" in stderr:
        failure = "traceback on stderr"
    elif not stamp.exists():
        failure = "job ended before odoni.cli.run returned"
    elif job.check is not None:
        try:
            outcome.output_bytes = out.read_bytes()
            outcome.output = json.loads(outcome.output_bytes)
            failure = failure or job.check(outcome.output)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"unreadable or malformed output: {exc!r}"
    outcome.failure = failure
    if traced and trace_file.exists():
        outcome.trace = json.loads(trace_file.read_text(encoding="utf-8"))
    return outcome


def cycle_untraced(jobs, workdir, deadline, kill_at, env) -> list[Outcome]:
    """One full pass, then more jobs in list order, skipping any whose
    last duration no longer fits before the deadline, until none fits."""
    outcomes = [run_job(job, workdir, False, kill_at, env) for job in jobs]
    last = {o.job.name: o.setup_s + o.wall_s for o in outcomes}
    i = 0
    while True:
        now = time.monotonic()
        fitting = [k for k in range(len(jobs)) if now + last[jobs[(i + k) % len(jobs)].name] <= deadline]
        if not fitting:
            return outcomes
        i = (i + fitting[0]) % len(jobs)
        outcome = run_job(jobs[i], workdir, False, kill_at, env)
        last[jobs[i].name] = outcome.setup_s + outcome.wall_s
        outcomes.append(outcome)
        i += 1


def paired_passes(jobs, workdir, deadline, kill_at, env) -> tuple[list[Outcome], list[Outcome], int]:
    """Untraced pass then traced pass, repeated while another pair fits;
    a traced output must match the untraced one byte for byte."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    pairs = 0
    while True:
        began = time.monotonic()
        untraced_pass = [run_job(job, workdir, False, kill_at, env) for job in jobs]
        for job, a in zip(jobs, untraced_pass):
            b = run_job(job, workdir, True, kill_at, env)
            if b.failure is None and a.output_bytes != b.output_bytes:
                b.failure = "traced output differs from the untraced output"
            traced.append(b)
        plain += untraced_pass
        pairs += 1
        now = time.monotonic()
        if now + (now - began) > deadline:
            return plain, traced, pairs


def median_job_sum(outcomes: list[Outcome]) -> float:
    """Sum over distinct jobs of each job's median wall time."""
    by_job: dict[str, list[float]] = {}
    for o in outcomes:
        by_job.setdefault(o.job.name, []).append(o.wall_s)
    return sum(statistics.median(v) for v in by_job.values())


def frobenius_rate(outcomes: list[Outcome]) -> float:
    """Good primes sampled per second of wall time, over frobenius jobs."""
    primes = seconds = 0.0
    for o in outcomes:
        if o.output is not None and "primes_used" in o.output:
            primes += o.output["primes_used"]
            seconds += o.wall_s
    return primes / seconds if seconds else 0.0


def certificate_records(output: Optional[dict]) -> list[dict]:
    if not output:
        return []
    if "records" in output:
        return output["records"]
    return (output.get("certificate") or {}).get("records", [])


def layer_metrics(plain: list[Outcome], traced: list[Outcome], pairs: int) -> dict:
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    counts: dict[str, float] = {}
    exhibits = found = unclassified = budget_hit = 0
    for o in traced:
        if o.trace is not None:
            for name, value in spans.self_times(o.trace["spans"]).items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in spans.span_calls(o.trace["spans"]).items():
                calls[name] = calls.get(name, 0) + value
            for name, value in o.trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
        for rec in certificate_records(o.output):
            ex = rec.get("exhibited_q")
            if ex is None:
                continue
            note = ex.get("note") or ""
            exhibits += 1
            found += bool(ex.get("found"))
            unclassified += "unclassified" in note
            budget_hit += "beyond bit budget" in note

    metrics: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / pairs, "s")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / pairs, "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (counts.get(name, 0) / pairs, unit)
    metrics["certify.exhibit_odd_prime_q.found"] = (found / pairs, "count")
    metrics["certify.exhibit_odd_prime_q.found_ratio"] = (found / exhibits if exhibits else 0.0, "ratio")
    metrics["certify.exhibit_odd_prime_q.unclassified"] = (unclassified / pairs, "count")
    metrics["certify.exhibit_odd_prime_q.budget_hit"] = (budget_hit / pairs, "count")
    used = counts.get("frobenius.primes_used", 0)
    scanned = used + counts.get("frobenius.primes_skipped", 0)
    metrics["frobenius.good_prime_ratio"] = (used / scanned if scanned else 0.0, "ratio")
    metrics["frob_primes_per_s"] = (frobenius_rate(plain), "1/s")
    overhead = median_job_sum(traced) - median_job_sum(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / median_job_sum(plain), "ratio")
    everything = plain + traced
    failed = sum(o.failure is not None for o in everything)
    metrics["jobs.fail_ratio"] = (failed / len(everything), "ratio")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, log, expected=None) -> dict:
    expected = expected or workloads.load_expected()
    env = job_env()
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(name, seed, workdir, expected)
        kill_at = time.monotonic() + HARD_LIMIT_S
        if trace:
            deadline = time.monotonic() + seconds
            plain, traced, pairs = paired_passes(jobs, workdir, deadline, kill_at, env)
            metrics = layer_metrics(plain, traced, pairs)
            measured = plain + traced
        else:
            probe = Job("setup-probe", ["--help"], None)
            probes = [run_job(probe, workdir, False, kill_at, env) for _ in range(SETUP_PROBES)]
            deadline = time.monotonic() + seconds
            measured = cycle_untraced(jobs, workdir, deadline, kill_at, env)
            # CPU, not wall, time: on a shared box the wait inside a
            # spawn (exec, page cache) drifts more than the work does
            setups = [o.setup_cpu_s for o in probes + measured]
            metrics = {
                "wall_s": (median_job_sum(measured), "s"),
                "setup_s": (statistics.median(setups) * len(jobs), "s"),
                "peak_rss_mb": (max(o.rss_mb for o in measured), "MB"),
            }
            measured = probes + measured
            failed = sum(o.failure is not None for o in measured)
            log(f"{name}: fail_ratio {failed / len(measured)} ratio, "
                f"frob_primes_per_s {frobenius_rate(measured)} 1/s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    failures = [o for o in measured if o.failure is not None]
    for o in failures:
        log(f"FAILED {o.job.name}{' (traced)' if o.traced else ''}: {o.failure}")
    for metric, (value, unit) in metrics.items():
        log(f"{name}: {metric} {value} {unit}")
    return {
        "correct": not failures,
        "attempted": len(measured),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "smoke", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "odoni" / "cli.py").is_file():
        print(f"run.py: no odoni source tree at {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_job, which kills and reaps the
    # running job, and through the work-directory cleanup
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def log(line: str):
        print(line, flush=True)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), log)
        print(json.dumps(result))
        return 0
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), log)
        for name in workloads.WORKLOADS
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
