"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success) and enforcing its runtime
budget.  All equality checks on the exact path are zero-tolerance;
floating-point cross-checks use 1e-9.
"""

import contextlib
import math
import random
import time
from fractions import Fraction
from math import gcd

from lenswall.cyclotomic import Cyclotomic, root_of_unity
from lenswall.errors import NotRationalError
from lenswall.eta import (
    component_classes,
    distinguish_metrics,
    eta_table,
    eta_variant,
    fourier_closed_form,
    fourier_coefficient,
    fourier_unit_ratio,
    rho_table,
)
from lenswall.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    alpha_invariant,
    double_structure,
    metabolizer_check,
    reflection_sphere,
    standard_lattice,
    sw_formal_dimension,
)
from lenswall.wallcross import (
    SpinCData,
    WallClass,
    classify_isometry,
    finite_orbit_swtot,
    orbit_swtot,
    power_swtot,
)
from oracles import eta_float, rho_float


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s / budget {budget_seconds}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def odd_units(n):
    return [q for q in range(1, n) if q % 2 and gcd(q, n) == 1]


def test_criterion_1_formula_agreement():
    with criterion(1, "exact formula agreement p <= 25", 60):
        for p in range(3, 26, 2):
            for q in odd_units(2 * p):
                for s in range(2 * p):
                    pinc = eta_variant(p, q, s, "pinc-difference")
                    assert eta_variant(p, q, s, "half-roots") == pinc
                    assert eta_variant(p, q, s, "odd-p") == pinc


def test_criterion_2_fourier_identity():
    with criterion(2, "Fourier identity p <= 41", 120):
        for p in range(3, 42, 2):
            for q in odd_units(2 * p):
                for j in range(1, p):
                    dft = fourier_coefficient(p, q, j)
                    assert dft == fourier_closed_form(p, q, j)
                    assert dft == fourier_unit_ratio(p, q, j)


def test_criterion_3_matching_iff_inverse_pair():
    with criterion(3, "matching iff q' = q or q^-1 mod 2p, p <= 13", 300):
        for p in (3, 5, 7, 9, 11, 13):
            n = 2 * p
            qs = odd_units(n)
            for q in qs:
                for qp in qs:
                    expected = qp == q or (q * qp) % n == 1
                    result = distinguish_metrics(p, q, qp)
                    assert (not result.distinguishable) == expected, (p, q, qp)


def test_criterion_4_component_count_p11():
    with criterion(4, "component classes of X(11)", 60):
        classes = component_classes(11)
        assert classes == [[1], [3, 15], [5, 9], [7, 19], [13, 17], [21]]
        assert len(classes) == 6


def test_criterion_5_lattice_reproduction():
    with criterion(5, "composed reflection matrix, metabolizer, alpha", 5):
        lat = standard_lattice()
        rp = reflection_sphere(lat, SIGMA_PLUS)
        rm = reflection_sphere(lat, SIGMA_MINUS)
        assert (rp * rm).matrix == ((9, 4, -8), (4, 1, -4), (8, 4, -7))
        structure = double_structure(lat, rp * rm)
        vectors = [(1, 0, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 1)]
        assert metabolizer_check(structure, vectors)
        assert alpha_invariant(rp) == 1
        assert alpha_invariant(rm) == 1


def test_criterion_6_formal_dimensions():
    with criterion(6, "formal dimensions -2 and -1", 5):
        assert sw_formal_dimension(-1, 5, -1) == -2
        # glue a zero-dimensional piece (c1^2 = 2chi + 3sigma) to the
        # summand above: chi adds minus 2, sigma and c1^2 add
        chi_x, sig_x = 4, 1
        c1sq_x = 2 * chi_x + 3 * sig_x
        assert sw_formal_dimension(c1sq_x, chi_x, sig_x) == 0
        assert sw_formal_dimension(c1sq_x - 1, chi_x + 5 - 2, sig_x - 1) == -1


def random_rational_rays(count, seed):
    """Random rational rays in the cone of diag(1,-1,-1), generic for the
    default wall: the integerized pairing with (1,1,1) is odd while the
    orbit moves it in steps of 4, so it never vanishes."""
    rng = random.Random(seed)
    rays = []
    while len(rays) < count:
        y = rng.randint(-40, 40)
        z = rng.randint(-40, 40)
        x = math.isqrt(y * y + z * z) + rng.randint(1, 25)
        if (x - y - z) % 2 == 0:
            continue
        den = rng.randint(1, 9)
        rays.append((Fraction(x, den), Fraction(y, den), Fraction(z, den)))
    return rays


def test_criterion_7_wall_crossing_suite():
    with criterion(7, "wall-crossing totals, inversion, powers, cyclic bookkeeping", 60):
        lat = standard_lattice()
        f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
        wall = WallClass((1, 1, 1))
        spinc = SpinCData((1, 1, 1), sw_x=1)
        rays = random_rational_rays(100, seed=20240601)
        for omega0 in rays:
            summary = orbit_swtot(lat, f, spinc, omega0, wall)
            assert summary.total == 1
            assert len(summary.crossings) == 1
            assert summary.stabilized
        inv = f.inverse()
        for omega0 in rays[:10]:
            assert orbit_swtot(lat, inv, spinc, omega0, wall).total == -1
        for omega0 in rays[:2]:
            for d in range(2, 7):
                assert power_swtot(lat, f, d, spinc, omega0, wall) == 1
        rng = random.Random(77)
        for n in range(1, 13):
            for d in range(1, 13):
                edges = [rng.randint(-5, 5) for _ in range(n)]
                walked = finite_orbit_swtot(n, edges, d)
                assert walked == math.lcm(d, n) // n * sum(edges)


def test_criterion_8_float_cross_validation():
    with criterion(8, "exact values match float summation within 1e-9", 120):
        checked = 0
        for p in range(3, 16, 2):
            for q in odd_units(2 * p):
                exact_rho = rho_table(2 * p, q)
                exact_eta = eta_table(p, q)
                for s in range(2 * p):
                    assert abs(exact_rho[s] - rho_float(2 * p, q, s)) < 1e-9
                    assert abs(exact_eta[s] - eta_float(p, q, s)) < 1e-9
                    checked += 2
        assert checked > 2000


def test_criterion_9_property_suites():
    with criterion(9, "standalone property suites", 60):
        rng = random.Random(424242)
        # field axioms on random elements
        n = 20
        deg = 8  # phi(20)
        for _ in range(8):
            a = Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)])
            b = Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)])
            c = Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)])
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == Cyclotomic(n, (1,))
        # Galois-sum rationality of the eta summand over a stable set
        for n, q, s in [(10, 3, 4), (14, 3, 5)]:
            total = Cyclotomic(n)
            for k in range(1, n):
                lam, lam_q, lam_s = (root_of_unity(n, k * e) for e in (1, q, s))
                total = total + (lam_s - 1) * lam_q * ((lam_q - 1) * (lam - 1)).inverse()
            total.as_rational()  # raises NotRationalError on failure
        # a single nontrivial root is not rational
        try:
            root_of_unity(8).as_rational()
            raise AssertionError("expected NotRationalError")
        except NotRationalError:
            pass
        # isometries preserve the gram exactly; reflections are involutions
        lat = standard_lattice()
        g = lat.gram
        rp = reflection_sphere(lat, SIGMA_PLUS)
        rm = reflection_sphere(lat, SIGMA_MINUS)
        for iso in (rp, rm, rp * rm, (rp * rm).power(5), rp.inverse()):
            m = iso.matrix
            mt = tuple(zip(*m))
            prod = tuple(
                tuple(
                    sum(mt[i][a] * g[a][b] * m[b][j] for a in range(3) for b in range(3))
                    for j in range(3)
                )
                for i in range(3)
            )
            assert prod == g
        assert (rp * rp).is_identity()
        assert (rm * rm).is_identity()
        assert classify_isometry(lat, rp * rm) == "parabolic"
