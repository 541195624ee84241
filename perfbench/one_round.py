"""One cold-start round of a workload, run by run.py in a fresh interpreter.

Usage: python3 one_round.py --workload NAME --seed N --trace 0|1 --work-dir DIR

Set-up (interpreter start, `import lenswall`, the cold-start guard, seeded
input generation and, for cli-readme, one bare `import lenswall.cli` in a
further fresh interpreter) ends at the monotonic time printed as "ready".
Then every question of the workload is answered and timed; checks run
after the last answer.  The calibration loop of calibrate.py runs once
before lenswall is imported (its time is not set-up), and a short probe
of it runs before the first answer and after every answer (its time is
not in any answer).  Except in cli-readme the round runs pinned to one
CPU, chosen at random.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrate, probe
from metrics import WORKLOADS


def _judge(question, result) -> tuple[bool, str]:
    if isinstance(result, Exception):
        return False, f"{type(result).__name__}: {result}"
    try:
        ok = bool(question.check(result))
    except Exception as exc:  # a malformed answer is a failed answer
        return False, f"check raised {type(exc).__name__}: {exc}"
    if ok:
        return True, ""
    stderr = getattr(result, "stderr", "") or ""
    return False, "check failed " + stderr[-300:]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    work_dir = Path(args.work_dir)

    if args.workload != "cli-readme":
        # The answers run in this process, on one CPU at a time; keep them
        # on the one CPU the probes measure.  cli-readme's answers are child
        # processes and worker pools, free to use every CPU.
        os.sched_setaffinity(0, {random.choice(sorted(os.sched_getaffinity(0)))})
    calibration = calibrate()
    # lenswall is imported from here on: part of set-up
    from tracing import Tracer, merge
    from workloads import BUILDERS, cold_start_guard

    cold_start_guard()
    probes = {}
    if args.workload == "cli-readme":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lenswall.cli"], check=True, timeout=60)
        probes["cli.start_s"] = time.perf_counter() - t0
    ctx = {"work_dir": str(work_dir), "traced": bool(args.trace)}
    questions = BUILDERS[args.workload](args.seed, ctx)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    ready = time.monotonic()
    answers = []
    speed = [probe()]
    for question in questions:
        t0 = time.perf_counter()
        try:
            result = question.call()
        except Exception as exc:  # the round keeps going; the answer counts as failed
            result = exc
        answers.append((question, time.perf_counter() - t0, result))
        speed.append(probe())
    wall = sum(seconds for _, seconds, _ in answers)
    if tracer is not None:
        tracer.restore()

    records = []
    for question, seconds, result in answers:
        ok, note = _judge(question, result)
        records.append({"label": question.label, "seconds": seconds, "ok": ok, "note": note})

    totals: dict = {}
    if tracer is not None:
        totals = tracer.totals()
        tracer.dump_spans(work_dir / f"{args.workload}.spans.json")
        for path in sorted(work_dir.glob("cli-*.totals.json")):
            merge(totals, json.loads(path.read_text()))
            path.unlink()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "ready": ready,
                "calibration_s": calibration,
                "probe_s": speed,
                "wall_s": wall,
                "answers": records,
                "peak_rss_kb": peak_kb,
                "probes": probes,
                "totals": totals,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
