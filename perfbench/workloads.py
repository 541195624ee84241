"""The four workloads: seeded inputs, the calls into lenswall, and the
correctness check for each answer.

A workload is a list of questions.  Each question is one user-visible
answer: a zero-argument call into lenswall's public API (looked up at
call time, so the tracer's replacements are seen) and a check that judges
the returned value with the benchmark's own arithmetic.  Checks never
import from the package's tests and never use a package path as its own
oracle; they run after every answer of a round has been timed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import lenswall as lw
from metrics import CLI_LABELS

# eta-tables: component_classes over fixed odd p, primes (phi(2p) = p - 1
# units) mixed with the composites 9 and 15 (fewer units); distinguish
# triples at two further p, disjoint from these, so that no answer reuses
# another answer's tables and the cost of a round does not depend on the
# seed.
COMPONENT_P = (3, 5, 7, 9, 11, 15)
TRIPLE_P = (13, 17)
NONMATCHING_PER_P = 1

# cyclotomic-oracle: every (q, s) and (q, j) for these p.
ORACLE_P = (3, 5, 7, 9, 11)

# wallcross-orbits: rays at the default step budget, plus a few long sweeps.
RAYS = 6
POWERS = range(2, 7)
LONG_RAYS = (10_000, 10_000, 100_000)
METABOLIZER_BOUND = 2
ORBIT_GROWTH = 60

FLOAT_TOL = 1e-9


@dataclass
class Question:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def cold_start_guard() -> None:
    """Refuse to time a round whose package caches are already warm."""
    caches = {
        "rho_table": lw.eta.rho_table,
        "eta_table": lw.eta.eta_table,
        "cyclotomic_polynomial": lw.cyclotomic.cyclotomic_polynomial,
    }
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize != 0]
    if warm:
        raise RuntimeError(f"package caches not empty at round start: {warm}")


def odd_units(n: int) -> list[int]:
    return [a for a in range(1, n, 2) if math.gcd(a, n) == 1]


def inverse_pairs(p: int) -> set[frozenset[int]]:
    """The classes {q, q^-1 mod 2p} over the odd units, in plain integers."""
    n = 2 * p
    return {frozenset((q, pow(q, -1, n))) for q in odd_units(n)}


# -- eta-tables ------------------------------------------------------------


def eta_tables(seed: int, ctx: dict) -> list[Question]:
    rng = random.Random(seed)
    questions = []
    for p in TRIPLE_P:
        n = 2 * p
        units = odd_units(n)
        q = rng.choice([u for u in units if u * u % n != 1])
        q_inv = pow(q, -1, n)
        others = rng.sample([u for u in units if u not in (q, q_inv)], NONMATCHING_PER_P)
        for qp in [q_inv, *others]:
            questions.append(
                Question(
                    f"distinguish p={p} q={q} q'={qp}",
                    lambda p=p, q=q, qp=qp: lw.distinguish_metrics(p, q, qp),
                    lambda r, n=n, q=q, qp=qp: r.distinguishable == (qp not in (q, pow(q, -1, n))),
                )
            )
    for p in COMPONENT_P:
        questions.append(
            Question(
                f"component_classes p={p}",
                lambda p=p: lw.component_classes(p),
                lambda r, p=p: {frozenset(c) for c in r} == inverse_pairs(p)
                and sum(len(c) for c in r) == len(odd_units(2 * p)),
            )
        )
    return questions


# -- cyclotomic-oracle -----------------------------------------------------


def _eta_half_roots_float(p: int, q: int, s: int) -> complex:
    """(1/p) sum over lam^p = -1 of lam^(s+q) / ((lam^q - 1)(lam - 1))."""
    total = 0j
    for k in range(1, 2 * p, 2):
        lam = cmath.exp(1j * math.pi * k / p)
        total += lam ** (s + q) / ((lam**q - 1) * (lam - 1))
    return total / p


def _fourier_float(p: int, q: int, j: int) -> complex:
    """omega^(jq) / ((omega^(jq) + 1)(omega^j + 1)), omega = e^(2 pi i / p)."""
    w = cmath.exp(2j * math.pi / p)
    return w ** (j * q) / ((w ** (j * q) + 1) * (w**j + 1))


def _embed(element) -> complex:
    """The benchmark's own embedding of a power-basis element of Q(zeta_n)."""
    n = element.order
    return sum(complex(c) * cmath.exp(2j * math.pi * i / n) for i, c in enumerate(element.coeffs))


def _oracle_block(p: int, q: int):
    values = []
    for s in range(2 * p):
        values.append((lw.eta_variant(p, q, s, "half-roots"), lw.eta_variant(p, q, s, "odd-p")))
    fourier = []
    for j in range(1, p):
        fourier.append((lw.fourier_closed_form(p, q, j), lw.fourier_unit_ratio(p, q, j)))
    return values, fourier


def _oracle_ok(p: int, q: int, result) -> bool:
    values, fourier = result
    if len(values) != 2 * p or len(fourier) != p - 1:
        return False
    for s, (half, odd) in enumerate(values):
        if not (isinstance(half, Fraction) and half == odd):
            return False
        if abs(_eta_half_roots_float(p, q, s) - float(half)) > FLOAT_TOL:
            return False
    for j, (closed, ratio) in enumerate(fourier, start=1):
        if closed != ratio or abs(_embed(closed) - _fourier_float(p, q, j)) > FLOAT_TOL:
            return False
    return True


def cyclotomic_oracle(seed: int, ctx: dict) -> list[Question]:
    blocks = [(p, q) for p in ORACLE_P for q in odd_units(2 * p)]
    random.Random(seed).shuffle(blocks)
    return [
        Question(
            f"oracle block p={p} q={q}",
            lambda p=p, q=q: _oracle_block(p, q),
            lambda r, p=p, q=q: _oracle_ok(p, q, r),
        )
        for p, q in blocks
    ]


# -- wallcross-orbits ------------------------------------------------------


def generic_rays(rng: random.Random, count: int) -> list[tuple[Fraction, ...]]:
    """Rational rays (x, y, z)/d in the positive cone of diag(1,-1,-1) whose
    pairing x - y - z with the default wall (1,1,1) is odd.  The default map
    changes that pairing by multiples of 4 along the orbit, so no orbit
    point lands on the wall.

    The orbit's integers grow as 8 n^2 (x - z) (the dual map is unipotent
    with fixed isotropic vector (1, 0, 1)), and their cost per step jumps
    where they pass a machine-word size, so every ray has x - z = ORBIT_GROWTH
    and gcd(x, y, z) = 1: the integer ray lenswall works with is (x, y, z)
    for every d, and every seed's orbits cost the same.  y is odd, which
    makes x - y - z odd, and |y| <= 25 < sqrt(120 z + 3600) keeps the ray
    in the cone."""
    rays = []
    while len(rays) < count:
        z, y = rng.randint(10, 20), rng.randrange(-25, 26, 2)
        x = z + ORBIT_GROWTH
        if math.gcd(x, y, z) == 1:
            d = rng.randint(1, 9)
            rays.append((Fraction(x, d), Fraction(y, d), Fraction(z, d)))
    return rays


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free elimination on integer rows."""
    rows = [list(r) for r in rows]
    rank, col, width = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            a, b = rows[rank][col], rows[i][col]
            rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _is_metabolizer(vectors, f_matrix) -> bool:
    """Half-rank, isotropic for diag(1,-1,-1) + -diag(1,-1,-1), and invariant
    under f + id: the benchmark's own integer check of a doubled-structure
    metabolizer for the rank-3 standard lattice."""
    gram = (1, -1, -1, -1, 1, 1)
    vecs = [tuple(v) for v in vectors]
    if len(vecs) != 3 or _rank([list(v) for v in vecs]) != 3:
        return False
    if any(sum(g * a * b for g, a, b in zip(gram, u, v)) for u in vecs for v in vecs):
        return False
    for v in vecs:
        image = tuple(sum(f_matrix[i][k] * v[k] for k in range(3)) for i in range(3)) + v[3:]
        if _rank([list(u) for u in vecs] + [list(image)]) != 3:
            return False
    return True


def wallcross_orbits(seed: int, ctx: dict) -> list[Question]:
    rng = random.Random(seed)
    lat = lw.standard_lattice()
    f = lw.reflection_sphere(lat, (1, 1, 1)) * lw.reflection_sphere(lat, (1, -1, 1))
    f_inv = f.inverse()
    wall = lw.WallClass((1, 1, 1))
    spinc = lw.SpinCData((1, 1, 1), sw_x=1)
    rays = generic_rays(rng, RAYS + len(LONG_RAYS))
    total_is = lambda want: lambda r: r.total == want and len(r.crossings) == 1
    questions = []
    for i, ray in enumerate(rays[:RAYS]):
        questions.append(
            Question(f"orbit_swtot f ray {i}", lambda ray=ray: lw.orbit_swtot(lat, f, spinc, ray, wall), total_is(1))
        )
        questions.append(
            Question(
                f"orbit_swtot f^-1 ray {i}",
                lambda ray=ray: lw.orbit_swtot(lat, f_inv, spinc, ray, wall),
                total_is(-1),
            )
        )
        for d in POWERS:
            questions.append(
                Question(
                    f"power_swtot d={d} ray {i}",
                    lambda ray=ray, d=d: lw.power_swtot(lat, f, d, spinc, ray, wall),
                    lambda r: r == 1,
                )
            )
    for ray, n_max in zip(rays[RAYS:], LONG_RAYS):
        questions.append(
            Question(
                f"orbit_swtot f n_max={n_max}",
                lambda ray=ray, n_max=n_max: lw.orbit_swtot(lat, f, spinc, ray, wall, n_max=n_max),
                total_is(1),
            )
        )
    questions.append(Question("spinc_orbit", lambda: lw.spinc_orbit(lat, f, (1, 1, 1)), lambda r: not r.finite))
    questions.append(
        Question("classify_isometry", lambda: lw.classify_isometry(lat, f), lambda r: r == "parabolic")
    )
    structure = lw.double_structure(lat, f)
    questions.append(
        Question(
            f"metabolizer_search bound={METABOLIZER_BOUND}",
            lambda: lw.metabolizer_search(structure, METABOLIZER_BOUND),
            lambda r: r is not None
            and lw.metabolizer_check(structure, r)
            and _is_metabolizer(r, f.matrix),
        )
    )
    return questions


# -- cli-readme ------------------------------------------------------------


def cli_readme(seed: int, ctx: dict) -> list[Question]:
    """Every README command once, each in a fresh interpreter, plus
    `sweep --p 13` at one and at two workers; --jobs is capped at nproc."""
    nproc = os.cpu_count() or 1
    svg = Path(ctx["work_dir"]) / f"disc-{os.getpid()}.svg"

    def ok(check):
        """Exit status 0 and a result document that passes `check`."""
        return lambda proc: proc.returncode == 0 and check(json.loads(proc.stdout)["results"])

    def classes(p):
        return lambda res: {frozenset(c) for c in res["classes"]} == inverse_pairs(p)

    def svg_complete(res):
        text = svg.read_text()
        svg.unlink()
        return text.startswith("<?xml") and text.rstrip().endswith("</svg>")

    commands = {
        "rho": (["rho", "--order", "2", "--q", "1", "--s", "1"], ok(lambda r: r["value"] == "1/4")),
        "eta": (["eta", "--p", "3", "--q", "1", "--s", "1"], ok(lambda r: r["value"] == "-1/4")),
        "eta-odd-p": (
            ["eta", "--p", "3", "--q", "1", "--s", "1", "--formula", "odd-p"],
            ok(lambda r: r["value"] == "-1/4"),
        ),
        "distinguish": (
            ["distinguish", "--p", "5", "--q", "1", "--qprime", "3"],
            ok(lambda r: r["distinguishable"] is True and r["matches"] == []),
        ),
        "sweep-p7": (["sweep", "--p", "7", "--jobs", str(min(4, nproc))], ok(classes(7))),
        "components": (["components", "--p", "11"], ok(lambda r: classes(11)(r) and r["count"] == 6)),
        "swtot": (["swtot", "--scenario", "paper-default"], ok(lambda r: r["total"] == 1)),
        "orbit": (
            ["orbit", "--scenario", "paper-default"],
            ok(lambda r: r["classification"] == "parabolic" and r["spinc_orbit"]["finite"] is False),
        ),
        "metabolizer": (["metabolizer", "--bound", "1"], ok(lambda r: r["found"] and r["check"])),
        "dimension": (
            ["dimension", "--c1-square", "-1", "--euler", "5", "--signature", "-1"],
            ok(lambda r: r["dimension"] == -2),
        ),
        "plot-disc": (["plot-disc", "--out", str(svg)], ok(svg_complete)),
        "sweep-p13-jobs1": (["sweep", "--p", "13", "--jobs", "1"], ok(classes(13))),
        "sweep-p13-jobs2": (["sweep", "--p", "13", "--jobs", str(min(2, nproc))], ok(classes(13))),
    }
    labels = list(CLI_LABELS)
    random.Random(seed).shuffle(labels)
    if ctx["traced"]:
        prefix = [sys.executable, str(Path(__file__).with_name("clitrace.py"))]
    else:
        prefix = [sys.executable, "-m", "lenswall"]

    def run(label, argv):
        env_cmd = dict(os.environ)
        if ctx["traced"]:
            env_cmd["PERFBENCH_TRACE_PREFIX"] = str(Path(ctx["work_dir"]) / f"cli-{label}")
        return subprocess.run(prefix + argv, env=env_cmd, capture_output=True, text=True, timeout=120)

    return [
        Question(label, lambda label=label, argv=commands[label][0]: run(label, argv), commands[label][1])
        for label in labels
    ]


BUILDERS = {
    "eta-tables": eta_tables,
    "cyclotomic-oracle": cyclotomic_oracle,
    "wallcross-orbits": wallcross_orbits,
    "cli-readme": cli_readme,
}
