"""Per-layer costs of lenswall at fixed sizes, for a parent and a change
checkout, added to a BENCH_*.json document under "layers".

    python3 bench/layers.py ../parent . --out BENCH_example.json

The layers measured so far:

- "matching": component_classes(p) at p = 101, 1001 and 2001.

Each run is a fresh interpreter on the checkout's src/: it times the one
call (the import excluded) and reports the process's peak RSS (ru_maxrss).
Each size runs PAIRS pairs, alternating which side runs first, and is
summarized as bench/pairs.py summarizes a workload.  Both sides must give
the same answer.  Other keys of an existing document are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from pairs import host, summarize

PAIRS = 5
LAYERS = {"matching": [("component_classes", p) for p in (101, 1001, 2001)]}
BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}

PROBE = """
import hashlib, json, resource, sys, time
from lenswall import eta
name, p = sys.argv[1], int(sys.argv[2])
start = time.perf_counter()
result = getattr(eta, name)(p, max_p=p)
wall = time.perf_counter() - start
print(json.dumps({
    "answer": hashlib.sha256(json.dumps(result).encode()).hexdigest(),
    "metrics": {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    },
}))
"""


def run_once(checkout: Path, name: str, p: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, name, str(p)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}({p}) failed in {checkout}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("host", host())
    layers = {}
    for layer, calls in LAYERS.items():
        layers[layer] = {}
        for name, p in calls:
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(getattr(args, side), name, p)
                if pair["parent"]["answer"] != pair["change"]["answer"]:
                    raise RuntimeError(f"{name}({p}): parent and change answers differ")
                runs.append(pair)
                print(f"{name} p={p} pair {i + 1}/{PAIRS}: wall_s parent "
                      f"{pair['parent']['metrics']['wall_s']:.3f} change "
                      f"{pair['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
            layers[layer][f"{name} p={p}"] = {"metrics": summarize(runs, BETTER), "runs": runs}
    doc["layers"] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
