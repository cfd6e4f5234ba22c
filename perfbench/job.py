"""Run one odoni CLI job in this fresh interpreter, as a user would.

    python3 perfbench/job.py STAMP TRACE -- ODONI_ARGS...

Imports ``odoni.cli``, optionally installs the span probes (TRACE is a
file path, or ``-`` for an untraced job), then calls ``odoni.cli.run``.
STAMP receives, at the first call into ``run`` (the end of set-up), the
``time.monotonic()`` reading (comparable with the parent's clock) and
the CPU time the process has used so far, plus the exit code. TRACE
receives the job's spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    stamp_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py STAMP TRACE -- ODONI_ARGS...")
    import odoni.cli

    rec = None
    if trace_path != "-":
        import spans

        rec = spans.Recorder(job=os.path.basename(stamp_path))
        spans.install(rec)
    code = None
    setup_cpu = time.process_time()
    ready = time.monotonic()
    try:
        if rec is None:
            code = odoni.cli.run(argv)
        else:
            index = rec.open("cli.run")
            try:
                code = odoni.cli.run(argv)
            finally:
                rec.close(index)
    finally:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "setup_cpu": setup_cpu, "code": code, "odoni": odoni.__file__}, fh)
        if rec is not None:
            rec.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
