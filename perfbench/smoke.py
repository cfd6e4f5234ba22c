"""Smoke test of the benchmark itself, in seconds:

    python3 perfbench/smoke.py

Runs the tiny ``smoke`` job list (every job kind and every output check)
untraced and traced, and checks that:
  * every job passes, and the metric names and units are exactly the
    ones BENCHMARK.json declares for each mode;
  * the traced run sees the main layers and its outputs match the
    untraced ones byte for byte (run.py fails the job otherwise);
  * negative control: with a corrupted recorded F_n_mod_p, jobs fail
    and the fail ratio rises above 0;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

LAYERS_SEEN = ["certify.certify", "polymod.factor_mod_p", "permgroup.closure", "poly.compose"]


def declared(section: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    def quiet(_line: str):
        pass

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload("smoke", 0, 0, trace, print)
        expect(result["correct"] and result["failed"] == 0, f"smoke jobs pass (trace={int(trace)})")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(units == declared(section), f"metrics match BENCHMARK.json {section}")
        if trace:
            for layer in LAYERS_SEEN:
                expect(result["metrics"][f"{layer}.self_s"]["value"] > 0, f"traced run sees {layer}")

    corrupted = copy.deepcopy(workloads.load_expected())
    corrupted["F_n_mod_p"]["2"][0] += 1
    result = run.run_workload("smoke", 0, 0, True, quiet, expected=corrupted)
    fail_ratio = result["metrics"]["jobs.fail_ratio"]["value"]
    expect(not result["correct"] and fail_ratio > 0, f"corrupted F_n_mod_p raises fail_ratio to {fail_ratio}")

    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "smoke",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
