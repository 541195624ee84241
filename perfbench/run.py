"""lenswall benchmark: cold-start workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of eta-tables, cyclotomic-oracle, wallcross-orbits, cli-readme,
or "all" to run the four in turn.  The run repeats rounds of the workload,
each in a fresh interpreter (perfbench/one_round.py) with empty package
caches, for about S seconds (it starts no round expected to end more than
half a round after S) and at least MIN_ROUNDS rounds.  One process
generates the load, round after round (a closed loop with one client);
only cli-readme's `sweep --jobs` starts workers, at most nproc of them.

--trace 0 reports the end-to-end metrics of perfbench/metrics.py from
untraced rounds.  Their times are scaled to a host of reference speed by
the fixed loop of perfbench/calibrate.py: each answer's time is multiplied
by calibrate.REFERENCE_S over the loop time measured by the probes just
before and just after it (on the one CPU an in-process round is pinned
to, or averaged over all CPUs for cli-readme), and set-up time by
REFERENCE_S over the whole loop run just before set-up.  The measured medians and the scale are
printed beside them.  --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics: layer totals from the traced rounds, CLI
timings from the untraced ones, and trace.overhead_s, the median traced
wall_s minus the median untraced wall_s (both scaled).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit status is 0 when every answer passed its
check, 1 when some did not, and 2 when the benchmark could not run (for
instance without the lenswall sources under src/).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from metrics import CLI_LABELS, CLI_METRICS, END_TO_END, PER_LAYER, WORKLOADS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
# Start no round after this much of a run, so a run ends well within 180 s.
LAST_START_S = 100


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    # the package's size budgets stay at their defaults
    env.pop("LENSWALL_MAX_P", None)
    env.pop("LENSWALL_SEARCH_BUDGET", None)
    return env


def prepare(env) -> Path:
    """Check the sources are there and byte-compile them (untimed)."""
    if not (ROOT / "src" / "lenswall" / "__init__.py").is_file():
        raise BenchError(f"no lenswall sources under {ROOT / 'src'}")
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    for argv in (
        ["-m", "compileall", "-q", str(ROOT / "src" / "lenswall"), str(HERE)],
        ["-c", "import lenswall.cli; print(lenswall.__file__)"],
    ):
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up step {argv[:2]} failed: {proc.stderr[-500:]}")
    if not Path(proc.stdout.strip()).is_relative_to(ROOT / "src"):
        raise BenchError(f"lenswall imported from {proc.stdout.strip()}, not from {ROOT / 'src'}")
    return work_dir


def one_round(workload, seed, traced, work_dir, env) -> dict:
    argv = [
        sys.executable, str(HERE / "one_round.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--work-dir", str(work_dir),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} round failed ({proc.returncode}): {proc.stderr[-1500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned - out["calibration_s"]
    out["round_s"] = time.monotonic() - spawned
    out["traced"] = traced
    return out


def run_rounds(workload, seed, seconds, trace, work_dir, env) -> list[dict]:
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        rounds.append(one_round(workload, seed, trace and len(rounds) % 2 == 1, work_dir, env))
        elapsed = time.monotonic() - start
        per_kind = min(
            sum(1 for r in rounds if not r["traced"]),
            sum(1 for r in rounds if r["traced"]) if trace else MIN_ROUNDS,
        )
        typical = statistics.median(r["round_s"] for r in rounds)
        if (per_kind >= MIN_ROUNDS and elapsed + typical / 2 >= seconds) or elapsed >= LAST_START_S:
            return rounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scaled_answers(r: dict) -> list[float]:
    """The round's answer times scaled to the reference host speed, each by
    the mean of the two probes around it: the host's speed moves within
    a second, so the probes next to an answer track it best."""
    p = r["probe_s"]
    return [a["seconds"] * 2 * REFERENCE_S / (p[i] + p[i + 1]) for i, a in enumerate(r["answers"])]


def scaled_wall(r: dict) -> float:
    return sum(scaled_answers(r))


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """Medians over the untraced rounds of times scaled to the reference
    host speed, plus sample counts, quartiles and the measured (unscaled)
    medians."""
    labels = [a["label"] for a in plain[0]["answers"]]
    if any([a["label"] for a in r["answers"]] != labels for r in plain):
        raise BenchError("rounds of one run asked different questions")
    wall = [scaled_wall(r) for r in plain]
    setup = [r["setup_s"] * REFERENCE_S / r["calibration_s"] for r in plain]
    # one latency per answer, its mean over the rounds, so that a percentile
    # falling between two answers' latencies does not follow single outliers
    per_round = [scaled_answers(r) for r in plain]
    answer_ms = [statistics.mean(seconds[i] * 1000 for seconds in per_round) for i in range(len(labels))]
    scale = statistics.median(REFERENCE_S / x for r in plain for x in r["probe_s"])
    values = {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(setup),
        "answer_p50_ms": statistics.median(answer_ms),
        "answer_p90_ms": statistics.quantiles(answer_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
    }
    answers = "%d answers x %d rounds" % (len(labels), len(plain))
    notes = {
        "wall_s": "q1 %.4f  q3 %.4f  n=%d rounds; measured median %.4f"
        % (*quartiles(wall)[::2], len(wall), statistics.median(r["wall_s"] for r in plain)),
        "setup_s": "q1 %.4f  q3 %.4f  n=%d rounds; measured median %.4f"
        % (*quartiles(setup)[::2], len(setup), statistics.median(r["setup_s"] for r in plain)),
        "answer_p50_ms": answers,
        "answer_p90_ms": answers + "; probe scale median %.4f (reference loop %.3f s)"
        % (scale, REFERENCE_S),
        "peak_rss_mb": "largest single process, median of %d rounds" % len(plain),
    }
    return values, notes


def per_layer(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = [layer_metrics(r["totals"]) for r in traced]
    values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    values.update(dict.fromkeys(CLI_METRICS, 0.0))
    starts = [r["probes"]["cli.start_s"] for r in plain if "cli.start_s" in r["probes"]]
    if starts:
        values["cli.start_s"] = statistics.median(starts)
        for label in CLI_LABELS:
            values[f"cli.command_s.{label}"] = statistics.median(
                a["seconds"] for r in plain for a in r["answers"] if a["label"] == label
            )
        jobs1 = values["cli.command_s.sweep-p13-jobs1"]
        values["cli.sweep_jobs2_over_jobs1"] = values["cli.command_s.sweep-p13-jobs2"] / jobs1
    values["trace.overhead_s"] = statistics.median(map(scaled_wall, traced)) - statistics.median(
        map(scaled_wall, plain)
    )
    return values


def run_workload(workload, seed, seconds, trace, work_dir, env) -> tuple[dict, int, int]:
    rounds = run_rounds(workload, seed, seconds, trace, work_dir, env)
    answers = [a for r in rounds for a in r["answers"]]
    failed = [a for a in answers if not a["ok"]]
    for a in failed[:10]:
        print(f"FAILED {workload}: {a['label']}: {a['note']}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    print(
        f"workload {workload}  seed {seed}  rounds {len(plain)} untraced"
        + (f" + {len(rounds) - len(plain)} traced" if trace else "")
        + f"  answers {len(answers)}  failed {len(failed)}"
        + f"  failed_ratio {len(failed) / len(answers):.4g} ({len(failed)}/{len(answers)})"
    )
    if trace:
        values = per_layer(rounds)
        units, notes = PER_LAYER, {}
    else:
        values, notes = end_to_end(plain)
        units = END_TO_END
    for key, value in values.items():
        print(f"  {key:<34} {value:>14.6g} {units[key]:<6} {notes.get(key, '')}")
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    return metrics, len(answers), len(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env = child_env()
    try:
        work_dir = prepare(env)
        if args.workload == "all":
            metrics, attempted, failed = {}, 0, 0
            for workload in WORKLOADS:
                m, a, f = run_workload(workload, args.seed, args.seconds, args.trace, work_dir, env)
                metrics.update({f"{workload}.{k}": v for k, v in m.items()})
                attempted, failed = attempted + a, failed + f
        else:
            metrics, attempted, failed = run_workload(
                args.workload, args.seed, args.seconds, args.trace, work_dir, env
            )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
