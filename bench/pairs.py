"""Alternating parent/change runs of the perfbench benchmark, summarized
into one BENCH_*.json document.

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T`
once in each of two checkouts, with the same seed, alternating which side
runs first.  For every end-to-end metric the document keeps both sides'
values, their medians, the parent's quartiles, and in how many pairs the
change was better (ties count for neither side).

    python3 bench/pairs.py --parent ../parent --change . \\
        --workload wallcross-orbits --pairs 10 --out BENCH_example.json

The checkouts must each hold `perfbench/` and `src/`; the directions of
the metrics are read from the change's BENCHMARK.json.  With `--trace`,
each side also makes one `--trace 1` run per workload (at the first seed),
and the document keeps its per-layer metrics under "trace".  When the output
file exists, the workloads it holds that this run does not measure are
kept, and so are its other keys (bench/layers.py's "layers"), so several
runs can fill one document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"benchmark did not run in {checkout}: {proc.stderr.strip()}")
    doc = json.loads(lines[-1])
    return {
        "failed": doc["failed"],
        "attempted": doc["attempted"],
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; a single value is both (before 3.13,
    statistics.quantiles refuses one data point)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def host() -> dict:
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_q1": q1,
            "parent_q3": q3,
            "change_wins": wins,
            "pairs": len(runs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="also record one traced run per side and workload")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({"host": host(), "seconds": args.seconds})
    doc.setdefault("workloads", {})
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: wall_s parent "
                  f"{pair['parent']['metrics']['wall_s']:.3f} change "
                  f"{pair['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
        doc["workloads"][workload] = {
            "failed": {
                side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")
            },
            "metrics": summarize(runs, better),
            "runs": runs,
        }
        if args.trace:
            doc["workloads"][workload]["trace"] = {
                side: run_once(getattr(args, side), workload, args.seed_base, args.seconds, 1)
                for side in ("parent", "change")
            }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
