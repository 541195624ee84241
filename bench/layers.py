"""Per-layer costs of lenswall at fixed sizes, for a parent and a change
checkout, added to a BENCH_*.json document under "layers".

    python3 bench/layers.py ../parent . --out BENCH_example.json

The layers measured so far:

- "matching": component_classes(p) at p = 101, 1001 and 2001.
- "orbit": on the paper map, orbit_swtot for f and f^-1 and power_swtot
  for d = 2..6 on six fixed generic rays, and metabolizer_search at
  bound 2.  One answer takes tens of microseconds, so the size of each
  of these three calls is a number of rounds, each round on a newly
  built map, whose powers, certificate and orientation are therefore
  computed afresh, as in one perfbench round.  It times power_swtot's
  orbits, which the perfbench tracer's orbit_swtot counters do not see.
  rank8_orbit_swtot reads tests/data/rank8_parabolic.json's orbit at
  n_max 3, 17 and 1000 with the map rebuilt each round: its closed form
  has period m = 5, the only timed orbit whose pieces read more than one
  step each, as no perfbench workload has m > 1.
- "field": one cold eta_variant(p, 5, 7, f, max_p=p) for the two field
  formulas, half-roots and odd-p, at p = 199, 1009, 2003 and 4001: the
  closed-form inverses, the products at degree up to p and the traces of
  a cyclotomic-field value, where perfbench's cyclotomic-oracle stops at
  p = 11.  After the timing each value is checked against the integer
  path (pinc-difference), and a value that differs fails the run.
- "poly": one cold cyclotomic_polynomial(n) at n = 2310 and 30030, the
  products of the first five and six primes, with every smaller Phi_d
  that the construction reads built cold in the same call.

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
# each layer: the name of its size argument and its (call, size) runs
LAYERS = {
    "matching": ("p", [("component_classes", p) for p in (101, 1001, 2001)]),
    "orbit": (
        "rounds",
        [
            ("orbit_swtot", 200),
            ("power_swtot", 50),
            ("metabolizer_search", 100),
            ("rank8_orbit_swtot", 200),
        ],
    ),
    "field": ("p", [(f, p) for p in (199, 1009, 2003, 4001) for f in ("half_roots", "odd_p")]),
    "poly": ("n", [("cyclotomic_polynomial", n) for n in (2310, 30030)]),
}
BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}

PROBE = """
import hashlib, json, resource, sys, time
from fractions import Fraction
import lenswall as lw

# generic rays as in perfbench's wallcross-orbits: x - z = 60, y odd
RAYS = [
    tuple(Fraction(c, d) for c in ray)
    for ray, d in (((72, -7, 12), 3), ((75, 11, 15), 1), ((78, -23, 18), 5),
                   ((71, 3, 11), 2), ((80, 19, 20), 7), ((73, -1, 13), 4))
]
SPINC, WALL = lw.SpinCData((1, 1, 1), sw_x=1), lw.WallClass((1, 1, 1))


def paper_map():
    lat = lw.standard_lattice()
    return lat, lw.reflection_sphere(lat, (1, 1, 1)) * lw.reflection_sphere(lat, (1, -1, 1))


def orbit_swtot(rounds):
    for _ in range(rounds):
        lat, f = paper_map()
        summaries = [lw.orbit_swtot(lat, g, SPINC, ray, WALL) for ray in RAYS for g in (f, f.inverse())]
    return [(s.total, sorted(s.crossings.items())) for s in summaries]


def power_swtot(rounds):
    for _ in range(rounds):
        lat, f = paper_map()
        answer = [lw.power_swtot(lat, f, d, SPINC, ray, WALL) for ray in RAYS for d in range(2, 7)]
    return answer


def metabolizer_search(rounds):
    for _ in range(rounds):
        lat, f = paper_map()
        answer = lw.metabolizer_search(lw.double_structure(lat, f), 2)
    return answer


def rank8_orbit_swtot(rounds):
    scenario = lw.load_scenario("tests/data/rank8_parabolic.json")
    lat, spinc, ray, wall = scenario.lattice, scenario.spinc, scenario.omega0, scenario.wall
    for _ in range(rounds):
        f = lw.Isometry(lat, scenario.isometry.matrix)
        summaries = [lw.orbit_swtot(lat, f, spinc, ray, wall, n) for n in (3, 17, 1000)]
    return [(s.total, sorted(s.crossings.items())) for s in summaries]


def component_classes(p):
    return lw.component_classes(p, max_p=p)


def half_roots(p):
    return str(lw.eta_variant(p, 5, 7, "half-roots", max_p=p))


def odd_p(p):
    return str(lw.eta_variant(p, 5, 7, "odd-p", max_p=p))


def cyclotomic_polynomial(n):
    return list(lw.cyclotomic_polynomial(n))


name, size = sys.argv[1], int(sys.argv[2])
start = time.perf_counter()
result = globals()[name](size)
wall = time.perf_counter() - start
if name in ("half_roots", "odd_p") and result != str(lw.eta_flipspun(size, 5, 7, max_p=size)):
    sys.exit(f"{name}({size}) = {result} is not the pinc-difference value")
print(json.dumps({
    "answer": hashlib.sha256(json.dumps(result).encode()).hexdigest(),
    "metrics": {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    },
}))
"""


def run_once(checkout: Path, name: str, size: int) -> dict:
    # absolute, as the probe runs with the checkout as its working directory
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, name, str(size)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}({size}) failed in {checkout}: {proc.stderr.strip()}")
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
    for layer, (size_name, calls) in LAYERS.items():
        layers[layer] = {}
        for name, size in calls:
            label = f"{name} {size_name}={size}"
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(getattr(args, side), name, size)
                if pair["parent"]["answer"] != pair["change"]["answer"]:
                    raise RuntimeError(f"{label}: parent and change answers differ")
                runs.append(pair)
                print(f"{label} pair {i + 1}/{PAIRS}: wall_s parent "
                      f"{pair['parent']['metrics']['wall_s']:.3f} change "
                      f"{pair['change']['metrics']['wall_s']:.3f}", file=sys.stderr)
            layers[layer][label] = {"metrics": summarize(runs, BETTER), "runs": runs}
    doc["layers"] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
