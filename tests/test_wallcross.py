import math
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import cached_property, reduce
from itertools import count, product
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lenswall.errors import (
    ConeError,
    GenericityError,
    LenswallError,
    ParameterError,
    ResourceBoundError,
    StabilizationError,
    UniquenessViolationError,
)
from lenswall.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    IntegralLattice,
    Isometry,
    _mat_vec,
    alpha_invariant,
    identity_isometry,
    reflection_sphere,
    standard_lattice,
)
from lenswall.wallcross import (
    OrbitStatus,
    OrbitSummary,
    SpinCData,
    WallClass,
    _sign,
    classify_isometry,
    cone_point,
    disc_project,
    finite_orbit_swtot,
    orbit_swtot,
    power_swtot,
    spinc_orbit,
    unique_crossing_index,
)
from lenswall import lattice, wallcross
from lenswall.lattice import _charpoly, _identity, _transpose, _unipotent_power
from lenswall.poly import _cyclotomic_factors
from lenswall.scenario import load_scenario
from oracles import _mat_mul as oracle_mat_mul
from oracles import (
    _orbit_pairings,
    _orbit_sweep,
    residue_coefficients_by_pairing,
    unipotent_power_ladder,
)

C1 = (1, 1, 1)


@pytest.fixture
def lat():
    return standard_lattice()


@pytest.fixture
def parabolic(lat):
    return reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)


@pytest.fixture
def wall():
    return WallClass(C1)


@pytest.fixture
def spinc():
    return SpinCData(C1, sw_x=1)


def random_cone_points(count, seed=0, odd_pairing=True):
    """Random integer rays in the positive cone of diag(1,-1,-1); with
    odd_pairing they pair oddly with (1,1,1), which keeps the whole
    parabolic orbit generic (the pairing moves in steps of 4)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        y = rng.randint(-20, 20)
        z = rng.randint(-20, 20)
        x = math.isqrt(y * y + z * z) + rng.randint(1, 15)
        if odd_pairing and (x - y - z) % 2 == 0:
            continue
        points.append((x, y, z))
    return points


def test_cone_point_validation(lat):
    assert cone_point(lat, (2, 1, 0)) == (2, 1, 0)
    # the integer ray through the coordinates, scaled by the lcm of the denominators
    ray = cone_point(lat, (Fraction(7, 2), 2, 2))
    assert ray == (7, 4, 4)
    assert all(type(x) is int for x in ray)
    with pytest.raises(ConeError):
        cone_point(lat, (1, 1, 1))  # null ray
    with pytest.raises(ConeError):
        cone_point(lat, (-2, 0, 0))  # wrong cone component
    # the message quotes the coordinates as given, not the integer ray
    coords = (Fraction(-7, 2), 2, 2)
    with pytest.raises(ConeError, match=re.escape(f"period point {coords} pairs")):
        cone_point(lat, coords)
    with pytest.raises(ParameterError):
        cone_point(IntegralLattice(lat.gram), (2, 1, 0))  # no designated class


def test_wall_class_validation():
    with pytest.raises(ParameterError):
        WallClass((0, 0, 0)).vector()
    # the integer ray through c1 + perturbation, scaled by the lcm of the denominators
    w = WallClass((1, 1, 1), (Fraction(1, 3), Fraction(0), Fraction(0)))
    assert w.vector() == (4, 3, 3)
    assert all(type(x) is int for x in w.vector())
    assert all(type(x) is int for x in WallClass((1, 1, 1)).vector())
    with pytest.raises(ParameterError, match="^perturbation length does not match c1$"):
        WallClass((1, 1, 1), (Fraction(1, 3), Fraction(0))).vector()


def test_perturbed_wall_missing_the_fixed_ray(lat, parabolic):
    # a perturbation moves the wall off the parabolic fixed ray (1,0,1);
    # the orbit then crosses it an even number of times with net zero
    wall = WallClass(C1, (Fraction(1, 5), Fraction(0), Fraction(0)))
    spinc = SpinCData(C1, sw_x=1)
    summary = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=100)
    assert summary.total == 0
    assert summary.crossings == {-2: -1, 0: 1}
    with pytest.raises(UniquenessViolationError):
        unique_crossing_index(lat, parabolic, spinc, (3, 2, 2), wall, n_max=100)


def _fraction_ray(coords):
    """The integer ray through coords with every coordinate read by
    Fraction(), as cone_point read them before int and Fraction
    coordinates were taken as they are."""
    fracs = [Fraction(x) for x in coords]
    denom = math.lcm(*(x.denominator for x in fracs))
    return tuple(x.numerator * (denom // x.denominator) for x in fracs)


def test_integer_rays_of_every_coordinate_type(lat):
    """cone_point and WallClass.vector() give the ints that reading every
    coordinate by Fraction() gives, for int, Fraction, float, str and bool
    coordinates, and a ConeError quotes the coordinates as given."""
    rays = [
        (2, 1, 0),
        (Fraction(7, 2), 2, 2),
        (Fraction(6, 2), Fraction(1, 3), 0),
        (2.5, 0.5, 1),
        ("7/2", 2, "1/3"),
        (True, False, False),
        (3, True, Fraction(1, 2)),
        (0.5, "1/4", False),
    ]
    for coords in rays:
        ray = cone_point(lat, coords)
        assert ray == _fraction_ray(coords), coords
        assert all(type(x) is int for x in ray), coords
        wall = WallClass(coords).vector()
        assert wall == _fraction_ray(coords), coords
        assert all(type(x) is int for x in wall), coords
    assert WallClass((True, 0, 0), (Fraction(1, 2), 0.5, "1/3")).vector() == (9, 3, 2)
    for coords in ((1, 1, 1), (1.0, 1, True), ("1", Fraction(1), 1)):
        with pytest.raises(ConeError, match=re.escape(f"period point {coords} has non-positive")):
            cone_point(lat, coords)
    for coords in ((-2, 0, 0), (-2.5, "1/2", False), (Fraction(-7, 2), 2, 2)):
        with pytest.raises(ConeError, match=re.escape(f"period point {coords} pairs")):
            cone_point(lat, coords)


def test_spinc_validation(lat):
    SpinCData(C1, sw_x=1).validate(lat)
    with pytest.raises(ParameterError):
        SpinCData((1, 0, 0), sw_x=1).validate(lat)  # square +1, violates the congruence
    # squares 3 and -5 satisfy the congruence and give dimensions -1 and -3
    for c1 in ((2, 0, 1), (0, 2, 1)):
        with pytest.raises(ParameterError, match="does not give formal dimension -2"):
            SpinCData(c1, sw_x=1).validate(lat)


def test_orbit_swtot_default_scenario(lat, parabolic, wall, spinc):
    summary = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall)
    assert summary.total == 1
    assert list(summary.crossings) == [0]
    assert summary.stabilized
    assert summary.steps_used == 2001
    assert summary.method == "certificate"


def test_orbit_swtot_random_rays(lat, parabolic, wall, spinc):
    for omega0 in random_cone_points(25, seed=42):
        summary = orbit_swtot(lat, parabolic, spinc, omega0, wall, n_max=300)
        assert summary.total == 1
        assert len(summary.crossings) == 1


def test_orbit_swtot_inverse_negates(lat, parabolic, wall, spinc):
    for omega0 in random_cone_points(5, seed=3):
        forward = orbit_swtot(lat, parabolic, spinc, omega0, wall, n_max=200)
        backward = orbit_swtot(lat, parabolic.inverse(), spinc, omega0, wall, n_max=200)
        assert backward.total == -forward.total == -1


def test_orbit_swtot_zero_oracle(lat, parabolic, wall):
    summary = orbit_swtot(lat, parabolic, SpinCData(C1, sw_x=0), (3, 2, 2), wall)
    assert summary.total == 0
    assert summary.crossings == {}


def test_orbit_swtot_scales_with_oracle(lat, parabolic, wall):
    summary = orbit_swtot(lat, parabolic, SpinCData(C1, sw_x=-3), (3, 2, 2), wall)
    assert summary.total == -3


def test_orbit_swtot_alpha_precondition(lat, wall, spinc):
    """An alpha = -1 map is refused with the same message on every call,
    also once its orientation is kept on the map."""
    minus = Isometry(lat, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    message = re.escape("orbit sums require an orientation-coherent map (alpha = +1)")
    for _ in range(2):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            orbit_swtot(lat, minus, spinc, (3, 2, 2), wall)
    assert minus._orientation == -1


def test_orbit_swtot_non_generic_start(lat, parabolic, wall, spinc):
    with pytest.raises(GenericityError):
        orbit_swtot(lat, parabolic, spinc, (2, 1, 1), wall)  # on the wall


def test_unique_crossing_index(lat, parabolic, wall, spinc):
    # <omega0, w> < 0 starts on the negative side, so the crossing sits at n >= 0
    for omega0 in random_cone_points(10, seed=7):
        n = unique_crossing_index(lat, parabolic, spinc, omega0, wall, n_max=300)
        if lat.pairing(omega0, C1) < 0:
            assert n >= 0
        else:
            assert n < 0
        # applying the map once shifts the crossing index by -1
        shifted = parabolic.adjoint().apply(omega0)
        assert unique_crossing_index(lat, parabolic, spinc, shifted, wall, n_max=300) == n - 1


def test_unique_crossing_rejects_elliptic(lat, wall, spinc):
    rotation = Isometry(lat, ((1, 0, 0), (0, 0, -1), (0, 1, 0)))
    with pytest.raises(UniquenessViolationError):
        unique_crossing_index(lat, rotation, spinc, (3, 1, 1), wall, n_max=64)
    summary = orbit_swtot(lat, rotation, spinc, (3, 1, 1), wall, n_max=64)
    assert summary.total == 0 and summary.crossings == {}


def test_unique_crossing_index_refuses_a_zero_oracle_value_first(lat, parabolic, wall):
    """sw_x = 0 is refused once the inputs are checked, before the orbit is
    read: one crossing, a start on the wall and a wall side that never
    settles give the same error."""
    spinc = SpinCData(C1, sw_x=0)
    rotation = Isometry(lat, ROTATION)
    zero = "^crossing index is undefined when the oracle value is zero$"
    for f, omega0 in ((parabolic, (3, 2, 2)), (parabolic, (2, 1, 1)), (rotation, (3, 2, 2))):
        with pytest.raises(ParameterError, match=zero):
            unique_crossing_index(lat, f, spinc, omega0, wall, n_max=100)
    with pytest.raises(ConeError):
        unique_crossing_index(lat, parabolic, spinc, (-2, 0, 0), wall)


def test_power_swtot(lat, parabolic, wall, spinc):
    base = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=200).total
    for d in (1, 2, 3, 5):
        assert power_swtot(lat, parabolic, d, spinc, (3, 2, 2), wall, n_max=200) == base
    # inverse powers negate
    inv = parabolic.inverse()
    assert power_swtot(lat, inv, 2, spinc, (3, 2, 2), wall, n_max=200) == -base


def test_power_swtot_blames_a_short_window_not_arithmetic(lat):
    """Swept records that disagree may just need a longer window: on this
    hyperbolic map at n_max = 1, f's record totals 0 and f^4's totals 3, so
    power_swtot raises StabilizationError, as orbit_swtot itself does at
    n_max = 2..5; at n_max = 20 both totals read 3."""
    f = Isometry(lat, ((3, -2, -2), (-2, 2, 1), (2, -1, -2)))
    omega0 = (Fraction(87, 5), Fraction(42, 5), Fraction(-39, 5))
    wall = WallClass(C1, (-2, Fraction(9, 4), 1))
    spinc = SpinCData(C1, sw_x=-3)
    assert orbit_swtot(lat, f, spinc, omega0, wall, n_max=1)[1:] == (0, True, 3, "sweep")
    assert orbit_swtot(lat, f.power(4), spinc, omega0, wall, n_max=1).total == 3
    with pytest.raises(StabilizationError, match="^wall side has not stabilized within 1 steps"):
        power_swtot(lat, f, 4, spinc, omega0, wall, n_max=1)
    for n_max in range(2, 6):
        with pytest.raises(StabilizationError):
            orbit_swtot(lat, f, spinc, omega0, wall, n_max=n_max)
    assert orbit_swtot(lat, f, spinc, omega0, wall, n_max=20).total == 3
    assert power_swtot(lat, f, 4, spinc, omega0, wall, n_max=20) == 3


def test_power_swtot_rejects_finite_orbit(lat, wall, spinc):
    with pytest.raises(ParameterError):
        power_swtot(lat, identity_isometry(lat), 2, spinc, (3, 2, 2), wall)


def test_power_swtot_checks_its_inputs_first(lat, parabolic, wall, spinc):
    """power_swtot checks its inputs as orbit_swtot does, with the same
    messages, before it asks about the spin-c orbit: n_max = 0 is not
    reported as spinc_orbit's bound, nor an alpha = -1 map (whose spin-c
    orbit has period 2) as a finite orbit."""
    flip = Isometry(lat, ((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cases = (
        ((parabolic,), {"n_max": 0}, "^n_max must be positive$"),
        ((flip,), {}, re.escape("orbit sums require an orientation-coherent map (alpha = +1)")),
    )
    for (f,), kwargs, message in cases:
        with pytest.raises(ParameterError, match=message):
            orbit_swtot(lat, f, spinc, (3, 2, 2), wall, **kwargs)
        with pytest.raises(ParameterError, match=message):
            power_swtot(lat, f, 2, spinc, (3, 2, 2), wall, **kwargs)
    assert spinc_orbit(lat, flip, C1).period == 2


def test_consistency_checks_survive_python_O():
    """power_swtot's power invariance, finite_orbit_swtot's closed form and
    cyclotomic_polynomial's exact division are explicit raises, so they
    still fire under python -O, which strips assert statements.  Each is
    fed a wrong value by a patch in a fresh interpreter; the two patched
    records are certified and stabilized, the only ones whose totals must
    agree."""
    script = textwrap.dedent(
        """
        import math, types
        from lenswall import poly, wallcross
        from lenswall.lattice import SIGMA_MINUS, SIGMA_PLUS, reflection_sphere, standard_lattice

        def fails(call):
            try:
                call()
            except AssertionError as exc:
                return repr(exc)

        lat = standard_lattice()
        f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
        totals = iter((1, 2))
        wallcross._orbit_swtot = lambda *args: wallcross.OrbitSummary(
            {0: next(totals)}, method="certificate"
        )
        spinc, wall = wallcross.SpinCData((1, 1, 1), 1), wallcross.WallClass((1, 1, 1))
        print(__debug__)
        print(fails(lambda: wallcross.power_swtot(lat, f, 2, spinc, (3, 2, 2), wall)))
        wallcross.math = types.SimpleNamespace(gcd=math.gcd, lcm=lambda d, n: 2 * math.lcm(d, n))
        print(fails(lambda: wallcross.finite_orbit_swtot(4, (1, 0, -2, 3), 6)))
        poly._poly_divmod = lambda num, den: (num, [1])
        print(fails(lambda: poly.cyclotomic_polynomial(6)))
        """
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "AssertionError('power invariance violated: arithmetic bug')",
        "AssertionError()",
        "AssertionError()",
    ]


def test_finite_orbit_swtot():
    assert finite_orbit_swtot(4, (1, 0, -2, 3), 1) == 2
    assert finite_orbit_swtot(1, (5,), 7) == 35
    assert finite_orbit_swtot(4, (1, 0, -2, 3), 6) == 6
    rng = random.Random(13)
    for n in range(1, 13):
        for d in range(1, 13):
            edges = [rng.randint(-4, 4) for _ in range(n)]
            assert finite_orbit_swtot(n, edges, d) == math.lcm(d, n) // n * sum(edges)


def test_finite_orbit_swtot_rejects_non_integral_edges():
    with pytest.raises(ParameterError, match="got 0.5"):
        finite_orbit_swtot(2, [0.5, 1.7], 1)
    assert finite_orbit_swtot(2, [Fraction(4, 2), 1.0], 1) == 3


def test_spinc_orbit(lat, parabolic):
    assert spinc_orbit(lat, identity_isometry(lat), C1).period == 1
    status = spinc_orbit(lat, parabolic, C1, bound=1000)
    assert not status.finite and status.period is None and status.bound == 1000
    refl = reflection_sphere(lat, SIGMA_PLUS)
    assert spinc_orbit(lat, refl, (0, 1, -1)).period in (1, 2)


def test_spinc_orbit_checks_c1(lat, parabolic):
    """A c1 of the wrong length or with a fractional entry is an error, not
    a class that never returns."""
    with pytest.raises(ParameterError, match="vector length 2 does not match rank 3"):
        spinc_orbit(lat, parabolic, (1, 1))
    with pytest.raises(ParameterError, match="got 1/2"):
        spinc_orbit(lat, parabolic, (Fraction(1, 2), 1, 1))


def test_classify_isometry(lat, parabolic):
    assert classify_isometry(lat, parabolic) == "parabolic"
    assert classify_isometry(lat, identity_isometry(lat)) == "elliptic"
    assert classify_isometry(lat, reflection_sphere(lat, SIGMA_PLUS)) == "elliptic"
    rotation = Isometry(lat, ((1, 0, 0), (0, 0, -1), (0, 1, 0)))
    assert classify_isometry(lat, rotation) == "elliptic"
    # integral boost with eigenvalue 3 + 2*sqrt(2) on a Pell-form plane
    pell = IntegralLattice(((1, 0, 0), (0, -2, 0), (0, 0, -1)))
    boost = Isometry(pell, ((3, 4, 0), (2, 3, 0), (0, 0, 1)))
    assert classify_isometry(pell, boost) == "hyperbolic"
    # every signature (1, n, 0) is classified, and only those
    plane = IntegralLattice(((1, 0), (0, -1)))
    assert classify_isometry(plane, identity_isometry(plane)) == "elliptic"
    for gram, signature in ((((1, 0, 0), (0, 1, 0), (0, 0, -1)), (2, 1, 0)),
                            (((1, 0, 0), (0, -1, 0), (0, 0, 0)), (1, 1, 1))):
        other = IntegralLattice(gram)
        with pytest.raises(ParameterError, match=re.escape(f"(1, n, 0), got {signature}")):
            classify_isometry(other, identity_isometry(other))


_OTHER = IntegralLattice(((2, 0, 0), (0, -1, 0), (0, 0, -1)), positive_class=(1, 0, 0))


@pytest.mark.parametrize("call", [
    lambda lat, f, g, wall, spinc: orbit_swtot(lat, g, spinc, (3, 2, 2), wall),
    lambda lat, f, g, wall, spinc: unique_crossing_index(lat, g, spinc, (3, 2, 2), wall),
    lambda lat, f, g, wall, spinc: power_swtot(lat, g, 2, spinc, (3, 2, 2), wall),
    lambda lat, f, g, wall, spinc: spinc_orbit(lat, g, C1),
    lambda lat, f, g, wall, spinc: classify_isometry(_OTHER, f),
], ids=["orbit_swtot", "unique_crossing_index", "power_swtot", "spinc_orbit", "classify_isometry"])
def test_entry_points_refuse_a_map_of_another_lattice(lat, parabolic, wall, spinc, call):
    """A map of diag(2,-1,-1) on diag(1,-1,-1), or the paper map on
    diag(2,-1,-1), is refused rather than read through the wrong form."""
    g = identity_isometry(_OTHER)
    with pytest.raises(ParameterError, match="^isometry does not act on the given lattice$"):
        call(lat, parabolic, g, wall, spinc)


def test_entry_points_accept_a_map_of_an_equal_lattice(lat, parabolic, wall, spinc):
    """The lattices are compared by value, not by identity."""
    same = Isometry(standard_lattice(), parabolic.matrix)
    assert classify_isometry(lat, same) == "parabolic"
    assert orbit_swtot(lat, same, spinc, (3, 2, 2), wall).total == 1
    assert not spinc_orbit(lat, same, C1).finite


def test_disc_project(lat):
    assert disc_project(lat, (1, 0, 0)) == (0.0, 0.0)
    for omega in random_cone_points(20, seed=31, odd_pairing=False):
        y, z = disc_project(lat, omega)
        assert y * y + z * z < 1.0
    # scale invariance of the projected ray
    a = disc_project(lat, (3, 2, 2))
    b = disc_project(lat, (6, 4, 4))
    assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12
    # on the x < 0 sheet a ray is drawn where its negation is
    mirror = IntegralLattice(lat.gram, positive_class=(-1, 0, 0))
    assert disc_project(mirror, (-1, 0, 0)) == (0.0, 0.0)
    assert disc_project(mirror, (-3, -2, -2)) == a


def test_orbit_summary_total_is_sum():
    summary = OrbitSummary(crossings={2: 1, -5: -1, 7: 1}, steps_used=33)
    assert summary.total == 1


ROTATION = ((1, 0, 0), (0, 0, -1), (0, 1, 0))  # order 4, fixes (1, 0, 0)


def orbit_maps(lat):
    """Maps with a unipotent power of exponent 1, 2 and 4 (parabolic and
    elliptic), and two hyperbolic products, which orbit_swtot steps."""
    f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    rotation = Isometry(lat, ROTATION)
    refl = reflection_sphere(lat, SIGMA_PLUS)
    return [
        f, f.inverse(), f.power(2), f.power(3), rotation, rotation * f,
        f * rotation, refl, f * refl, refl * rotation, rotation.power(2) * f,
    ]


def outcome(fn, *args, **kwargs):
    try:
        summary = fn(*args, **kwargs)
    except LenswallError as exc:
        return type(exc), str(exc)
    return list(summary.crossings.items()), summary.total, summary.steps_used


@st.composite
def orbit_cases(draw):
    lat = standard_lattice()
    f = draw(st.sampled_from(orbit_maps(lat)))
    y, z = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    x = math.isqrt(y * y + z * z) + draw(st.integers(1, 15))
    scale = Fraction(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    small = st.fractions(min_value=-1, max_value=1, max_denominator=9)
    perturbation = draw(st.none() | st.tuples(small, small, small))
    return dict(
        lattice=lat,
        f=f,
        spinc=SpinCData(C1, sw_x=draw(st.sampled_from([0, 1, -3]))),
        omega0=tuple(scale * c for c in (x, y, z)),
        wall=WallClass(C1, perturbation),
        n_max=draw(st.integers(1, 300)),
    )


@settings(max_examples=300, deadline=None)
@given(orbit_cases())
def test_orbit_certificate_matches_sweep(case):
    """orbit_swtot (the closed-form certificate, or for hyperbolic maps the
    stepped orbit read as one bracket) and the reference sweep agree on the
    crossings (in order), the total, steps_used, and the type and message
    of any exception.  A certificate that says stabilized sees no change of
    the wall side when the reference steps on to 4 * n_max beyond either
    end (a change further out than that is not looked for)."""
    assert outcome(orbit_swtot, **case) == outcome(_orbit_sweep, **case)
    try:
        summary = orbit_swtot(**case)
    except LenswallError:
        return
    if summary.method == "certificate":
        far = _orbit_sweep(**case, horizon=4 * case["n_max"])
        assert far.stabilized or not summary.stabilized


def test_orbit_certificate_stabilized_flag(lat, parabolic, spinc):
    # the perturbed wall is crossed at -2 and at 0; a window of one step
    # each side sees only the crossing at 0, and says it is not the whole story
    wall = WallClass(C1, (Fraction(1, 5), Fraction(0), Fraction(0)))
    short = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=1)
    assert short.crossings == {0: 1} and short.total == 1
    assert not short.stabilized and short.method == "certificate"
    assert orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=100).stabilized
    # this wall is crossed at 0 and at 2 only: the low end is settled at
    # n_max = 1, and the certificate sees the crossing beyond the high end
    wall = WallClass(C1, (Fraction(-3, 5), Fraction(-2, 5), Fraction(-2, 5)))
    short = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=1)
    assert short.crossings == {0: 1} and not short.stabilized
    assert orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=200).crossings == {0: 1, 2: -1}


def test_stabilization_window_is_sixteen_steps(lat, parabolic, spinc, wall):
    """The start (3, 2, 2) moved 20 steps back along the dual action, so the
    one crossing is at step 20.  At n_max = 34 the high window of 16 steps,
    20..35, holds both sides and no total is given; at n_max = 35 it is
    21..36.  A window of 15 would answer at n_max = 34."""
    omega = (3, 2, 2)
    for _ in range(20):
        omega = _mat_vec(parabolic.matrix, omega)
    assert omega == (3363, 82, 3362)
    args = (lat, parabolic, spinc, omega, wall)
    with pytest.raises(StabilizationError, match="within 34 steps"):
        orbit_swtot(*args, n_max=34)
    assert outcome(orbit_swtot, *args, n_max=34) == outcome(_orbit_sweep, *args, n_max=34)
    assert orbit_swtot(*args, n_max=35).crossings == {20: 1}
    assert outcome(orbit_swtot, *args, n_max=35) == outcome(_orbit_sweep, *args, n_max=35)


def test_orbit_swtot_hyperbolic_takes_the_sweep(lat, spinc, wall):
    hyperbolic = reflection_sphere(lat, SIGMA_PLUS) * Isometry(lat, ROTATION)
    assert classify_isometry(lat, hyperbolic) == "hyperbolic"
    assert _unipotent_power(hyperbolic.adjoint().matrix) is None
    summary = orbit_swtot(lat, hyperbolic, spinc, (3, 2, 2), wall, n_max=50)
    assert summary.method == "sweep" and summary.stabilized


def test_stepped_orbits_keep_a_step_budget(monkeypatch, lat, parabolic, spinc, wall):
    """A map with no unipotent power is stepped, and its orbit's integers
    grow linearly in bits, so orbit_swtot, spinc_orbit and power_swtot
    (through spinc_orbit) refuse an n_max above SWEEP_N_MAX = 20 000 with
    ResourceBoundError naming n_max, before the first step.  The budget
    bounds n_max itself: with it lowered to 50, n_max = 50 is walked and 51
    is refused.  A certified orbit keeps no such bound."""
    assert wallcross.SWEEP_N_MAX == 20_000
    hyperbolic = reflection_sphere(lat, SIGMA_PLUS) * Isometry(lat, ROTATION)
    walked = []
    walk = wallcross.orbit_walk

    def counted_walk(*args):
        walked.append(args[2:])
        return walk(*args)

    monkeypatch.setattr(wallcross, "orbit_walk", counted_walk)
    monkeypatch.setattr(wallcross, "SWEEP_N_MAX", 50)
    assert orbit_swtot(lat, hyperbolic, spinc, (3, 2, 2), wall, n_max=50).crossings == {0: 1}
    assert not spinc_orbit(lat, hyperbolic, spinc.c1, bound=50).finite
    assert walked == [(-50, 51), (0, 50)]
    walked.clear()
    for call in (
        lambda: orbit_swtot(lat, hyperbolic, spinc, (3, 2, 2), wall, n_max=51),
        lambda: spinc_orbit(lat, hyperbolic, spinc.c1, bound=51),
        lambda: power_swtot(lat, hyperbolic, 2, spinc, (3, 2, 2), wall, n_max=51),
    ):
        with pytest.raises(ResourceBoundError, match=r"^n_max=51 exceeds the step budget 50 "):
            call()
    assert walked == []
    assert orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=10**9).crossings == {0: 1}
    assert not spinc_orbit(lat, parabolic, spinc.c1, bound=10**9).finite


def test_paper_default_pairing_is_linear(lat, parabolic, wall):
    """<A^n omega0, w> = -1 + 4n for the default scenario, both as the
    certificate's coefficients and along the stepped orbit."""
    m, nil, square = _unipotent_power(parabolic.adjoint().matrix)
    omega, w = (3, 2, 2), (1, 1, 1)
    orbit = (omega, _mat_vec(nil, omega), _mat_vec(square, omega))
    coefficients = [lat.pairing(v, w) for v in orbit]
    assert (m, coefficients) == (1, [-1, 4, 0])
    values = _orbit_pairings(lat, parabolic, wall, omega, 50)
    assert all(values[n] == -1 + 4 * n for n in range(-50, 52))


def test_orbit_swtot_cost_does_not_grow_with_n_max(lat, parabolic, wall, spinc):
    summary = orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall, n_max=10**9)
    assert summary.crossings == {0: 1}
    assert summary.steps_used == 2 * 10**9 + 1


def test_orbit_swtot_cost_does_not_grow_with_far_sign_changes(lat):
    """Two orbits whose signs vary far beyond what the record must read.
    Under the quarter turn the wall side alternates by residue, so neither
    window holds one side.  On the rank-8 map with this start and wall the
    residues change sign about 2.6e6 steps out, beyond n_max = 50.  Both
    are answered from a few closed-form values, not by stepping there."""
    spinc, wall = SpinCData(C1, sw_x=1), WallClass(C1)
    with pytest.raises(StabilizationError, match="within 1000000000 steps"):
        orbit_swtot(lat, Isometry(lat, ROTATION), spinc, (3, 2, 2), wall, n_max=10**9)
    scenario = load_scenario(str(RANK8))
    far = WallClass(
        scenario.spinc.c1,
        (Fraction(-1, 500000), Fraction(-3, 1000000), Fraction(-1, 250000),
         -82376300, 6975300, -66144800, -87097900, -37015700),
    )
    omega0 = (10, -2, 5, 1, 3, -3, -3, -3)
    summary = orbit_swtot(scenario.lattice, scenario.isometry, scenario.spinc, omega0, far, n_max=50)
    assert summary.crossings == {} and not summary.stabilized


def test_spinc_orbit_matches_step_loop(lat):
    """spinc_orbit takes at most m steps on maps with a unipotent power; it
    still reports no return when the bound is below the period."""
    classes = [(1, 1, 1), (0, 1, -1), (1, 0, 0), (0, 1, 0), (2, -1, 3), (1, -1, 1)]
    for f in orbit_maps(lat):
        mat = f.adjoint().matrix
        for c1 in classes:
            for bound in (1, 2, 3, 4, 5, 12, 40):
                expected = OrbitStatus(finite=False, period=None, bound=bound)
                v = c1
                for n in range(1, bound + 1):
                    v = _mat_vec(mat, v)
                    if v == c1:
                        expected = OrbitStatus(finite=True, period=n, bound=bound)
                        break
                assert spinc_orbit(lat, f, c1, bound) == expected, (f, c1, bound)
    rotation = Isometry(lat, ROTATION)
    assert spinc_orbit(lat, rotation, (0, 1, 0), bound=3) == OrbitStatus(False, None, 3)
    assert spinc_orbit(lat, rotation, (0, 1, 0), bound=4) == OrbitStatus(True, 4, 4)


# maps of (1) + A2(-1) with their unipotent powers: order 3 and order 6 on
# the A2 plane, and -1 on the first summand times order 3 (Phi_2 Phi_3, so
# m is the lcm 6 of the orders found, not the last one)
A2_GRAM = ((1, 0, 0), (0, -2, 1), (0, 1, -2))
A2_MAPS = (
    (((1, 0, 0), (0, 0, -1), (0, 1, -1)), 3),
    (((1, 0, 0), (0, 0, 1), (0, -1, 1)), 6),
    (((-1, 0, 0), (0, 0, -1), (0, 1, -1)), 6),
)


def _direct_sum(*blocks):
    size = sum(map(len, blocks))
    rows, at = [], 0
    for block in blocks:
        rows += [(0,) * at + tuple(row) + (0,) * (size - at - len(block)) for row in block]
        at += len(block)
    return tuple(rows)


def _ladder_maps(lat, parabolic):
    """The maps the exponent ladder is checked on: the rank-3 words, each as
    the map and as its adjoint; the A2 maps above with their orders; and the
    two rank-12 blocks."""
    letters = [reflection_sphere(lat, sigma) for sigma in (SIGMA_PLUS, SIGMA_MINUS)]
    letters += [Isometry(lat, ROTATION)]
    letters += [g.inverse() for g in letters]
    words = set()
    for length in range(1, 5):
        for word in product(letters, repeat=length):
            f = reduce(Isometry.compose, word)
            words.update((f.matrix, f.adjoint().matrix))
    a2 = IntegralLattice(A2_GRAM)
    a2_maps = [(Isometry(a2, mat), order) for mat, order in A2_MAPS]
    # rank 12: a hyperbolic 2x2 block plus the identity has no unipotent
    # power; the paper map plus blocks of order 3 and 4 plus the identity
    # has m = lcm(1, 3, 4) = 12
    hyperbolic = _direct_sum(((2, 1), (1, 1)), _identity(10))
    mixed = _direct_sum(parabolic.adjoint().matrix, ((0, -1), (1, -1)), ((0, -1), (1, 0)),
                        _identity(5))
    return words, a2_maps, (hyperbolic, mixed)


def test_unipotent_power_matches_the_exponent_ladder(lat, parabolic):
    """On rank 3 the cyclotomic factors of the characteristic polynomial give
    the same (m, N, N^2), or None, as trying m = 1, 2, 3, 4, 6, 12: on every
    word of length <= 4 in r+, r-, the quarter turn and their inverses, each
    as the map and as its adjoint, and on the A2 maps above.  On rank 12 the
    same holds for two block maps whose eigenvalue orders divide 12."""
    words, a2_maps, (hyperbolic, mixed) = _ladder_maps(lat, parabolic)
    exponents = set()
    for mat in words:
        expected = unipotent_power_ladder(mat)
        assert _unipotent_power(mat) == expected, mat
        exponents.add(expected and expected[0])
    assert exponents == {None, 1, 2, 4}
    for f, order in a2_maps:
        for side in (f.matrix, f.adjoint().matrix):
            assert _unipotent_power(side) == unipotent_power_ladder(side)
            assert _unipotent_power(side)[0] == order
        assert classify_isometry(f.lattice, f) == "elliptic"
    # a unipotent Jordan block of size 4: no power has N^3 = 0
    jordan = tuple(tuple(int(j in (i, i + 1)) for j in range(4)) for i in range(4))
    assert _unipotent_power(jordan) is None
    assert _unipotent_power(hyperbolic) is None is unipotent_power_ladder(hyperbolic)
    assert _unipotent_power(mixed) == unipotent_power_ladder(mixed)
    assert _unipotent_power(mixed)[0] == 12


RANK8 = Path(__file__).parent / "data" / "rank8_parabolic.json"
HYPERBOLIC = Path(__file__).parent / "data" / "hyperbolic.json"
A2_ELLIPTIC = Path(__file__).parent / "data" / "a2_elliptic.json"


def test_a_hyperbolic_map_keeps_its_real_factor():
    """x^3 - 3x^2 - 3x + 1 = (x + 1)(x^2 - 4x + 1): Phi_2 and a rest whose
    roots are 2 +- sqrt(3)."""
    charpoly = _charpoly(load_scenario(str(HYPERBOLIC)).isometry.matrix)
    assert _cyclotomic_factors(charpoly) == ([2], [1, -4, 1])


def test_cyclotomic_factors_match_sympy(lat, parabolic):
    """On the characteristic polynomials of the ladder maps and the rank-8
    map, the stripped Phi_k, one per factor, and the rest are sympy's
    factor_list: its cyclotomic factors are read as Phi_k for the least k
    with Phi_k | x^k - 1, the others multiplied into the rest."""
    words, a2_maps, blocks = _ladder_maps(lat, parabolic)
    a2_sides = [side for f, _ in a2_maps for side in (f.matrix, f.adjoint().matrix)]
    rank8 = load_scenario(str(RANK8)).isometry.matrix
    x = sympy.Symbol("x")
    for charpoly in {tuple(_charpoly(mat)) for mat in (*words, *a2_sides, *blocks, rank8)}:
        content, factors = sympy.factor_list(sympy.Poly(charpoly[::-1], x))
        ks, rest = [], sympy.Poly(content, x)
        for factor, multiplicity in factors:
            if factor.is_cyclotomic:
                k = next(k for k in count(1) if sympy.Poly(x**k - 1, x).rem(factor).is_zero)
                ks += [k] * multiplicity
            else:
                rest *= factor**multiplicity
        expected = (sorted(ks), [int(c) for c in reversed(rest.all_coeffs())])
        assert _cyclotomic_factors(charpoly) == expected, charpoly


def test_rank8_parabolic_map_has_a_certificate(monkeypatch):
    """The paper map plus a 5-cycle on diag(1, -1 x 7): unipotent power 5,
    which no rank-3 exponent ladder reaches.  The certificate agrees with
    the reference sweep, and spinc_orbit takes at most 5 steps."""
    scenario = load_scenario(str(RANK8))
    lat, f = scenario.lattice, scenario.isometry
    assert classify_isometry(lat, f) == "parabolic"
    assert f._dual_unipotent[0] == 5
    args = (lat, f, scenario.spinc, scenario.omega0, scenario.wall)
    for n_max in (10**3, 10**4):
        assert orbit_swtot(*args, n_max=n_max).method == "certificate"
        assert outcome(orbit_swtot, *args, n_max=n_max) == outcome(_orbit_sweep, *args, n_max=n_max)
    walk, steps = wallcross.orbit_walk, []

    def counted(*walk_args):
        for n, v in walk(*walk_args):
            steps.append(n)
            yield n, v

    monkeypatch.setattr(wallcross, "orbit_walk", counted)
    assert spinc_orbit(lat, f, scenario.spinc.c1, bound=10**4) == OrbitStatus(False, None, 10**4)
    assert max(steps) <= 5
    steps.clear()
    c1 = (0, 0, 0, 1, 0, 0, 0, 0)  # moved along the 5-cycle
    assert spinc_orbit(lat, f, c1, bound=10**4) == OrbitStatus(True, 5, 10**4)
    assert max(steps) <= 5


@st.composite
def rank8_cases(draw):
    """The rank-8 map (m = 5), its inverse and its square, on small rays
    with entries on the 5-cycle and walls perturbed on the cycle
    coordinates: the pairing then differs by residue, so the wall side can
    change on some residues and not on others."""
    scenario = load_scenario(str(RANK8))
    f = scenario.isometry
    cycle = draw(st.tuples(*[st.integers(-3, 3)] * 5))
    y, z = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
    x = math.isqrt(y * y + z * z + sum(c * c for c in cycle)) + draw(st.integers(1, 5))
    shift = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return dict(
        lattice=scenario.lattice,
        f=draw(st.sampled_from([f, f.inverse(), f.power(2)])),
        spinc=SpinCData(scenario.spinc.c1, sw_x=draw(st.sampled_from([0, 1, -3]))),
        omega0=(x, y, z, *cycle),
        wall=WallClass(scenario.spinc.c1, (0, 0, 0, *draw(st.tuples(*[shift] * 5)))),
        n_max=draw(st.integers(1, 300)),
    )


@settings(max_examples=100, deadline=None)
@given(rank8_cases())
def test_rank8_certificate_matches_sweep(case):
    """As test_orbit_certificate_matches_sweep, on rank-8 orbits whose
    crossings vary by residue."""
    assert outcome(orbit_swtot, **case) == outcome(_orbit_sweep, **case)
    try:
        summary = orbit_swtot(**case)
    except LenswallError:
        return
    far = _orbit_sweep(**case, horizon=4 * case["n_max"])
    assert far.stabilized or not summary.stabilized


def test_paper_orbit_reads_eight_signs(lat, parabolic, spinc, wall, monkeypatch):
    """The paper map's orbit of (70, 3, 10) has one bracket and m = 1: the
    bracket reads its two steps and each of the six other pieces that the
    window edges cut reads its first step, so the signs are read 8 times,
    whatever n_max."""
    log = []
    monkeypatch.setattr(wallcross, "_sign", lambda x: log.append(x) or _sign(x))
    for n_max in (10**3, 10**9):
        log.clear()
        summary = orbit_swtot(lat, parabolic, spinc, (70, 3, 10), wall, n_max)
        assert (summary.crossings, summary.method) == ({-1: 1}, "certificate")
        assert len(log) == 8


def power_test_maps(lat):
    """Every map that a word of length <= 4 in r+, r-, the quarter turn and
    their inverses gives, the A2 maps (m = 3, 6, 6, so gcd(m, d) > 1
    occurs), the rank-8 map (m = 5) and a hyperbolic map (None)."""
    letters = [reflection_sphere(lat, sigma) for sigma in (SIGMA_PLUS, SIGMA_MINUS)]
    letters += [Isometry(lat, ROTATION)]
    letters += [g.inverse() for g in letters]
    maps = {}
    for length in range(1, 5):
        for word in product(letters, repeat=length):
            f = reduce(Isometry.compose, word)
            maps.setdefault(f.matrix, f)
    a2 = IntegralLattice(A2_GRAM)
    maps = [*maps.values(), *(Isometry(a2, mat) for mat, _ in A2_MAPS)]
    hyperbolic = reflection_sphere(lat, SIGMA_PLUS) * Isometry(lat, ROTATION)
    return maps + [load_scenario(str(RANK8)).isometry, hyperbolic]


def test_powers_carry_the_certificate_of_their_dual_action(lat):
    """f.power(d) reads the unipotent power of its dual action off f's
    (m, N^T, (N^2)^T), and it equals _unipotent_power of that action's
    transpose for d = -6..6, on the maps of power_test_maps."""
    exponents = set()
    for f in power_test_maps(lat):
        for d in range(-6, 7):
            power = f.power(d)
            expected = _unipotent_power(_transpose(power._inverse))
            assert power._dual_unipotent == expected, (f, d)
            exponents.add((f._dual_unipotent and f._dual_unipotent[0], expected and expected[0]))
    assert {(3, 1), (6, 2), (6, 3), (6, 6), (5, 1), (5, 5), (None, None)} <= exponents


def test_powers_are_built_once_per_map(lat):
    """A map keeps the powers it has built: f.power(d) returns the same
    object on every call, and f.inverse() and f.adjoint() are f.power(-1).
    For d = -6..6 on the maps of power_test_maps, and d = +-7..+-40 on the
    paper map, the rank-8 map and the hyperbolic map (longer halving
    chains), the stored power's matrix is the product of |d| copies of f
    or f^-1, and its inverse and certificate equal the ones the checking
    constructor and _unipotent_power of the transpose compute afresh."""
    maps = power_test_maps(lat)
    paper = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    deep = [*range(-40, -6), *range(7, 41)]
    cases = [(f, range(-6, 7)) for f in maps] + [(f, deep) for f in (paper, *maps[-2:])]
    for f, exponents in cases:
        identity = _identity(f.lattice.rank)
        for d in exponents:
            power = f.power(d)
            assert f.power(d) is power, (f, d)
            step = f.matrix if d > 0 else f._inverse
            fresh = Isometry(f.lattice, reduce(oracle_mat_mul, [step] * abs(d), identity))
            assert power.matrix == fresh.matrix, (f, d)
            assert power._inverse == fresh._inverse, (f, d)
            expected = _unipotent_power(_transpose(fresh._inverse))
            assert power._dual_unipotent == expected, (f, d)
        assert f.power(1) is f
        assert f.inverse() is f.inverse() is f.adjoint() is f.power(-1), f


def test_powers_share_their_halves(lat):
    """A new power is the square of the power at d/2 times f^+-1 when d is
    odd, each read through the map's store: on a fresh map d = 2..6 take
    7 products (1, 2, 1, 2, 1), and so do d = -6..-2 after the inverse."""
    calls = []
    compose = Isometry.compose

    def counted(self, other):
        calls.append((self, other))
        return compose(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Isometry, "compose", counted)
        for exponents in (range(2, 7), range(-6, -1)):
            f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
            calls.clear()
            for d in exponents:
                f.power(d)
            assert len(calls) == 7, exponents


def test_power_swtot_derives_the_power_certificate(lat, parabolic, wall, spinc, monkeypatch):
    """Across orbit_swtot on the map and on its inverse and power_swtot for
    d = 2..6, only the map's own certificate is computed; the inverse's
    and each power's are derived from it."""
    calls = []

    def counted(mat):
        calls.append(mat)
        return _unipotent_power(mat)

    monkeypatch.setattr(lattice, "_unipotent_power", counted)
    assert orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall).total == 1
    assert orbit_swtot(lat, parabolic.inverse(), spinc, (3, 2, 2), wall).total == -1
    for d in range(2, 7):
        assert power_swtot(lat, parabolic, d, spinc, (3, 2, 2), wall) == 1
    assert calls == [_transpose(parabolic._inverse)]


NONSTANDARD = Path(__file__).parent / "data" / "nonstandard_gram.json"


def _coefficients_agree(lat, f, omega0, wall):
    """wallcross._residue_coefficients (dot products with the wall's dual
    rows) equals the per-residue lattice pairings of the reference."""
    omega, w = cone_point(lat, omega0), wall.vector()
    rows = wallcross._residue_coefficients(
        f.adjoint(), f._dual_unipotent, omega, _mat_vec(lat.gram, w)
    )
    assert rows == residue_coefficients_by_pairing(lat, f, omega, w), (f, omega0, wall)
    return rows


def test_residue_coefficients_match_lattice_pairings(lat):
    """On every map with a certificate that a word of length <= 4 in r+,
    r-, the quarter turn and their inverses gives (m = 1, 2, 4), and on
    the maps that words of length <= 3 in four sphere reflections give on
    the nonstandard gram of tests/data/nonstandard_gram.json (where N is
    not symmetric), for random rays and perturbed walls."""
    rng = random.Random(29)
    letters = [reflection_sphere(lat, sigma) for sigma in (SIGMA_PLUS, SIGMA_MINUS)]
    letters += [Isometry(lat, ROTATION)]
    letters += [g.inverse() for g in letters]
    scenario = load_scenario(str(NONSTANDARD))
    other = scenario.lattice
    other_letters = [reflection_sphere(other, s) for s in ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 4, 3))]
    families = (
        (lat, letters, 4, random_cone_points(4, seed=29, odd_pairing=False)),
        (other, other_letters, 3, [scenario.omega0, (5, 2, 1), (Fraction(3, 2), 7, 2)]),
    )
    asymmetric = 0
    for lattice_, generators, longest, rays in families:
        maps = {}
        for length in range(1, longest + 1):
            for word in product(generators, repeat=length):
                f = reduce(Isometry.compose, word)
                maps.setdefault(f.matrix, f)
        certified = [f for f in maps.values() if f._dual_unipotent is not None]
        assert {f._dual_unipotent[0] for f in certified} >= {1, 2}
        for f in certified:
            nil = f._dual_unipotent[1]
            asymmetric += nil != tuple(zip(*nil))
            for ray in rays:
                shift = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
                for wall in (WallClass(C1), WallClass(C1, shift)):
                    _coefficients_agree(lattice_, f, ray, wall)
    assert asymmetric


@settings(max_examples=100, deadline=None)
@given(rank8_cases())
def test_rank8_residue_coefficients_match_lattice_pairings(case):
    """As test_residue_coefficients_match_lattice_pairings, on the rank-8
    draws (m = 5, so five residues)."""
    rows = _coefficients_agree(case["lattice"], case["f"], case["omega0"], case["wall"])
    assert len(rows) == 5


def test_orientation_is_decided_once_per_map(lat, monkeypatch):
    """orbit_swtot, power_swtot and unique_crossing_index on the paper map
    and its powers run the orientation kernel once per map: f and f^d for
    d = 2..6, each kept on the map however often it is asked."""
    kernel, calls = Isometry._orientation.func, []

    def counted(self):
        calls.append(self)
        return kernel(self)

    counted_property = cached_property(counted)
    counted_property.__set_name__(Isometry, "_orientation")
    monkeypatch.setattr(Isometry, "_orientation", counted_property)
    f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    spinc, wall = SpinCData(C1, sw_x=1), WallClass(C1)
    for ray in random_cone_points(3, seed=11):
        assert orbit_swtot(lat, f, spinc, ray, wall).total == 1
        for d in range(2, 7):
            assert power_swtot(lat, f, d, spinc, ray, wall) == 1
            assert orbit_swtot(lat, f.power(d), spinc, ray, wall).total == 1
        unique_crossing_index(lat, f, spinc, ray, wall)
    assert len(calls) == 6
    assert {id(g) for g in calls} == {id(f.power(d)) for d in range(1, 7)}


def test_kept_orientation_matches_a_fresh_reading(lat):
    """alpha_invariant, read once and kept on the map, equals the sign of
    <g v, v> for the positive class v, computed afresh, for every map of
    power_test_maps and its powers d = -3..3 (inverses included), for
    products of pairs of them and for products with -I, which swaps the
    cone components; a map of the A2 lattice, which has no positive class,
    raises on every call."""
    maps = power_test_maps(lat)
    minus = Isometry(lat, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    family = [f.power(d) for f in [*maps, minus] for d in range(-3, 4)]
    family += [f * g for f, g in zip(maps, maps[1:]) if f.lattice == g.lattice]
    family += [minus * f for f in maps if f.lattice == lat]
    for g in family:
        v = g.lattice.positive_class
        if v is None:
            for _ in range(2):
                with pytest.raises(ParameterError, match="^lattice has no designated positive class$"):
                    alpha_invariant(g)
            assert "_orientation" not in g.__dict__
            continue
        value = g.lattice.pairing(_mat_vec(g.matrix, v), v)
        assert alpha_invariant(g) == (1 if value > 0 else -1) == g.__dict__["_orientation"]
    assert {alpha_invariant(g) for g in family if g.lattice.positive_class} == {1, -1}


def window_cases():
    """The paper map on (3, 2, 2) with the plain wall and with a wall
    crossed twice, the quarter turn (m = 4), whose one-step segments change
    sign back and forth, the A2 elliptic map (m = 3), the rank-8 map (m = 5)
    and the hyperbolic map, which orbit_swtot sweeps."""
    lat = standard_lattice()
    paper = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    twice = WallClass(C1, (Fraction(-3, 5), Fraction(-2, 5), Fraction(-2, 5)))
    cases = [
        (lat, paper, C1, (3, 2, 2), WallClass(C1)),
        (lat, paper, C1, (3, 2, 2), twice),
        (lat, Isometry(lat, ROTATION), C1, (3, 2, 2), WallClass(C1)),
    ]
    for path in (A2_ELLIPTIC, RANK8, HYPERBOLIC):
        scenario = load_scenario(str(path))
        cases.append(
            (scenario.lattice, scenario.isometry, scenario.spinc.c1, scenario.omega0, scenario.wall)
        )
    return cases


def test_orbit_swtot_matches_the_sweep_around_the_window():
    """orbit_swtot's one-pass crossing read equals the reference sweep at
    n_max = 1, 2 and 15..17 (below, at and above the 16-step window), on
    every map of window_cases, with sw_x = 0, 1 and -3."""
    methods = set()
    for lattice_, f, c1, omega0, wall in window_cases():
        for sw_x in (0, 1, -3):
            spinc = SpinCData(c1, sw_x)
            for n_max in (1, 2, 15, 16, 17):
                args = (lattice_, f, spinc, omega0, wall)
                assert outcome(orbit_swtot, *args, n_max=n_max) == outcome(
                    _orbit_sweep, *args, n_max=n_max
                ), (f, sw_x, n_max)
                try:
                    methods.add(orbit_swtot(*args, n_max=n_max).method)
                except LenswallError:
                    pass
    assert methods == {"certificate", "sweep"}


def test_a_wall_of_the_wrong_length_is_refused(lat, parabolic, spinc):
    """A wall whose length is not the rank is refused before the orbit is
    read, by orbit_swtot and power_swtot, with the lattice pairing's
    message."""
    for c1, message in (((1, 1), "vectors of length 3, 2 on a rank-3 lattice"),
                        ((1, 1, 1, 0), "vectors of length 3, 4 on a rank-3 lattice")):
        wall = WallClass(c1)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            orbit_swtot(lat, parabolic, spinc, (3, 2, 2), wall)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            power_swtot(lat, parabolic, 2, spinc, (3, 2, 2), wall)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            lat.pairing((3, 2, 2), wall.vector())
