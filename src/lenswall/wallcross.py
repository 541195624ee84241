"""Signed wall-crossing bookkeeping for one-parameter families of period
points in the positive cone of a signature (1, n) lattice.

Period points are rays in the cone, never normalized to the hyperboloid;
cone_point checks a starting ray and returns the integer ray through it,
and WallClass.vector() returns the integer ray of the wall, so every
later decision is the sign of an integer pairing.  The orbit of a
starting ray under the dual action of an isometry crosses the wall of
reducibles, and the signed count of crossings times the oracle invariant
of the closed piece is the total one-parameter invariant.  Walls and
period points use dual (H^2) coordinates throughout: an isometry f acts
on them by the pairing-adjoint gram^-1 f^T gram, and orbit_walk steps a
ray through that action (the closed form's m residues are m plain steps,
see _residue_coefficients).  orbit_swtot cuts the steps at both ends of
every bracket and at the edges of the record and its two windows, and
answers every wall-side question in one loop over those pieces, each
reading its own signs: from a closed form when the action has a
unipotent power (Isometry._dual_unipotent, decided once per map, and
read off the base's for a power or an inverse) and from the stepped
orbit otherwise.  Both read the wall w through gram w, formed once per
call: a step's pairing is one dot product with it, and the closed form's
coefficients at each residue are three dot products, with gram w and its
products with the certificate's stored N^T and (N^2)^T.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import cycle, pairwise

from .errors import (
    ConeError,
    GenericityError,
    ParameterError,
    ResourceBoundError,
    StabilizationError,
    UniquenessViolationError,
)
from .lattice import (
    STANDARD_GRAM,
    IntegralLattice,
    Isometry,
    _as_int,
    _as_vector,
    _check_acts_on,
    _dot,
    _mat_vec,
    alpha_invariant,
    sw_formal_dimension,
)

__all__ = [
    "WallClass",
    "SpinCData",
    "OrbitSummary",
    "OrbitStatus",
    "cone_point",
    "orbit_swtot",
    "orbit_walk",
    "unique_crossing_index",
    "power_swtot",
    "finite_orbit_swtot",
    "spinc_orbit",
    "classify_isometry",
    "disc_project",
]

# orbit_swtot needs the wall side constant over this many steps at both
# ends of its range (over the whole range when that is shorter).
STAB_WINDOW = 16

# The largest n_max of a stepped orbit (a map with no unipotent power, see
# _check_sweep).  Its integers grow linearly in bits, so the cost grows
# faster than n_max: on tests/data/hyperbolic.json orbit_swtot takes 0.20 /
# 0.66 / 1.35 s and spinc_orbit 0.07 / 0.26 / 0.53 s at n_max 10^4 / 2*10^4 /
# 3*10^4 (2 vCPU x86_64, Python 3.11.7), so `lenswall orbit`, which walks
# both, ends in about a second at this budget.
SWEEP_N_MAX = 20_000


class WallClass(namedtuple("WallClass", "c1 perturbation", defaults=(None,))):
    """The class defining the wall of reducibles: the first Chern class c1
    (integers) of the spin-c structure plus a rational perturbation class
    (Fractions, or None)."""

    __slots__ = ()

    def vector(self) -> tuple[int, ...]:
        """The integer ray through c1 + perturbation (see _integerize)."""
        vec = self.c1
        if self.perturbation is not None:
            if len(self.perturbation) != len(self.c1):
                raise ParameterError("perturbation length does not match c1")
            vec = tuple(Fraction(a) + Fraction(b) for a, b in zip(self.c1, self.perturbation))
        if not any(vec):
            raise ParameterError("effective wall class is zero")
        return _integerize(vec)


class SpinCData(namedtuple("SpinCData", "c1 sw_x")):
    """The spin-c bookkeeping: c1 on the b+=1 summand and the oracle value
    sw_x (an integer) of the closed-piece invariant, whose moduli space has
    dimension 0."""

    __slots__ = ()

    def validate(self, lattice: IntegralLattice) -> None:
        c1_square = lattice.norm(self.c1)
        # chi = 5 and sigma = -1 for the b+=1 summand carrying the wall
        if sw_formal_dimension(c1_square, 5, -1) != -2:
            raise ParameterError(
                f"c1 with square {c1_square} does not give formal dimension -2 "
                "on the wall-carrying summand"
            )


class OrbitSummary(namedtuple("OrbitSummary", "crossings total stabilized steps_used method")):
    """Crossing record of one orbit.  crossings maps step index n to the
    signed contribution of the segment from orbit point n to n+1 (already
    multiplied by the oracle value); indices with zero contribution are
    omitted.  total is their sum, set on construction.  steps_used is
    the number of segments the record covers, and stabilized says whether
    the wall side is known to stay fixed beyond them.  method names how the
    record was computed: "certificate" (closed form of the orbit pairing) or
    "sweep" (step by step)."""

    __slots__ = ()

    def __new__(
        cls,
        crossings: dict[int, int],
        stabilized: bool = True,
        steps_used: int = 0,
        method: str = "sweep",
    ):
        total = sum(crossings.values())
        return tuple.__new__(cls, (crossings, total, stabilized, steps_used, method))

    def __getnewargs__(self):  # pickle and copy call __new__ without the computed total
        return self[:1] + self[2:]


class OrbitStatus(namedtuple("OrbitStatus", "finite period bound")):
    """Result of iterating a spin-c class: finite with a period, or no
    return within the inspected bound (treated as infinite downstream)."""

    __slots__ = ()


def cone_point(lattice: IntegralLattice, coords) -> tuple[int, ...]:
    """Validate that coords is a ray in the positive cone (positive square,
    positive pairing with the designated class) and return the integer ray
    through it: coords times the lcm of their denominators.  Both
    conditions are signs, which a positive scale keeps, so they are decided
    on the integer ray."""
    if lattice.positive_class is None:
        raise ParameterError("lattice needs a designated positive class for cone checks")
    vec = _integerize(coords)
    if len(vec) != lattice.rank:
        raise ParameterError(f"period point length {len(vec)} does not match rank {lattice.rank}")
    dual = _mat_vec(lattice.gram, vec)  # <u, vec> = u . dual, as the gram is symmetric
    if _dot(vec, dual) <= 0:
        raise ConeError(f"period point {coords} has non-positive square")
    if _dot(lattice.positive_class, dual) <= 0:
        raise ConeError(f"period point {coords} pairs non-positively with the positive class")
    return vec


def _integerize(vec) -> tuple[int, ...]:
    """The integer ray through vec: vec times the lcm of its denominators.
    int and Fraction coordinates are used as they are; any other (bool,
    float, str, ...) is read by Fraction()."""
    fracs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in vec]
    denom = math.lcm(*(x.denominator for x in fracs))
    return tuple(x.numerator * (denom // x.denominator) for x in fracs)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _on_wall(n: int) -> GenericityError:
    return GenericityError(f"orbit point at step {n} lies on the wall; perturb the starting ray")


def _unstable(n_max: int) -> StabilizationError:
    return StabilizationError(
        f"wall side has not stabilized within {n_max} steps; "
        "the map may not be parabolic for this wall"
    )


def _check_sweep(n_max: int) -> None:
    """Refuse, before the walk, a stepped orbit longer than SWEEP_N_MAX."""
    if n_max > SWEEP_N_MAX:
        raise ResourceBoundError(
            f"n_max={n_max} exceeds the step budget {SWEEP_N_MAX} of a stepped orbit "
            "(the map has no unipotent power)"
        )


def _check_map(lattice, f) -> None:
    _check_acts_on(lattice, f)
    if alpha_invariant(f) != 1:
        raise ParameterError("orbit sums require an orientation-coherent map (alpha = +1)")


def _check_orbit_inputs(lattice, f, spinc, n_max) -> None:
    _check_map(lattice, f)
    spinc.validate(lattice)
    if n_max < 1:
        raise ParameterError("n_max must be positive")


def orbit_walk(action: Isometry, omega, lo: int, hi: int):
    """(n, A^n omega) for n = 0, 1, ..., hi and then n = -1, -2, ..., lo,
    where A = action is the dual action f.adjoint() of a map f (so A^-1 is
    f itself).  The rays are yielded one at a time and never stored, since
    the integers of a hyperbolic orbit grow exponentially."""
    yield 0, omega
    for mat, steps in ((action.matrix, range(1, hi + 1)), (action._inverse, range(-1, lo - 1, -1))):
        v = omega
        for n in steps:
            v = _mat_vec(mat, v)
            yield n, v


def _root_brackets(a: int, b: int, c: int) -> list[tuple[int, int]]:
    """Integer intervals holding the floor and the ceiling of every real
    root of P(k) = a + b*k + c*k(k-1)/2, so P keeps one sign on each run of
    integers that avoids them.  They hold more than that needs: a run
    keeps one sign unless it holds both the floor and the ceiling of a
    root, so brackets from isqrt(disc) - 1, whose ends move by less than
    1/2 as den >= 2, still hold one of the two and give the same signs."""
    quad, lin, const = c, 2 * b - c, 2 * a  # 2P(k) = quad*k^2 + lin*k + const
    if quad < 0:
        quad, lin, const = -quad, -lin, -const
    if quad == 0:
        return [] if lin == 0 else [(-const // lin, -(const // lin))]
    disc = lin * lin - 4 * quad * const
    if disc < 0:
        return []
    root = math.isqrt(disc)  # root <= sqrt(disc) < root + 1
    den = 2 * quad
    return [
        ((-lin - root - 1) // den, -((lin + root) // den)),
        ((-lin + root) // den, -((lin - root - 1) // den)),
    ]


def _residue_coefficients(action, certificate, omega, dual) -> list[tuple[int, int, int]]:
    """(a_r, b_r, c_r) = (<v, w>, <N v, w>, <N^2 v, w>) for v = A^r omega,
    r = 0 .. m-1, where certificate = (m, N^T, (N^2)^T) is the dual action
    A's (Isometry._dual_unipotent) and dual = gram w.  <N^j v, w> =
    v . (N^j)^T dual, so the rows dual, N^T dual and (N^2)^T dual are
    formed once and each residue's coefficients are three dot products;
    each A^r omega is one product of A's matrix with the one before."""
    m, nil_t, square_t = certificate
    nil_dual, square_dual = _mat_vec(nil_t, dual), _mat_vec(square_t, dual)
    coeffs, v = [], omega
    for r in range(m):
        if r:
            v = _mat_vec(action.matrix, v)
        coeffs.append((_dot(v, dual), _dot(v, nil_dual), _dot(v, square_dual)))
    return coeffs


def orbit_swtot(
    lattice: IntegralLattice,
    f: Isometry,
    spinc: SpinCData,
    omega0,
    wall: WallClass,
    n_max: int = 1000,
) -> OrbitSummary:
    """Total signed wall-crossing count of the orbit of omega0, times the
    oracle invariant of the closed piece.

    n_max must be positive (ParameterError otherwise).  The record covers
    the segments from step n to n+1 for n in [-n_max, n_max], so
    steps_used = 2*n_max + 1 whatever the method.  A point on the wall at a
    step in [-n_max, n_max + 1] raises GenericityError for the first such
    step.  The wall side must then be constant over the last
    min(STAB_WINDOW, n_max) steps at both ends,
    otherwise StabilizationError is raised (no total is reported for an
    uncertified orbit).

    When the dual action A of f has a power A^m = I + N with N^3 = 0
    (parabolic and elliptic maps), the pairing at step n = m*k + r is the
    integer quadratic a_r + b_r*k + c_r*k(k-1)/2 with a_r = <A^r omega0, w>,
    b_r = <N A^r omega0, w> and c_r = <N^2 A^r omega0, w>, the dot products
    of A^r omega0 with the wall's dual rows (see _residue_coefficients).  Its
    sign can change only near the roots, which integer square roots bound,
    and elsewhere it depends on r alone; so a few closed-form evaluations
    certify the whole range in time independent of n_max (method
    "certificate"), and stabilized says whether the sign provably stays
    fixed beyond both ends.  Other maps are stepped through the range
    (method "sweep"): the range is then one bracket whose ends are the
    reading's ends, so stabilized is always True, and an n_max above
    SWEEP_N_MAX raises ResourceBoundError before any step.  Both methods cut the
    steps at the brackets' ends and the window edges and read every answer
    in one loop over those pieces: a piece inside a bracket reads every
    step, any other its first m steps, and the crossings step only through
    the record's pieces whose sign varies.
    """
    _check_orbit_inputs(lattice, f, spinc, n_max)
    return _orbit_swtot(lattice, f, spinc.sw_x, cone_point(lattice, omega0), wall.vector(), n_max)


def _orbit_swtot(lattice, f, sw_x: int, omega, w, n_max: int) -> OrbitSummary:
    """orbit_swtot on checked inputs: the integer ray omega (from
    cone_point), the integer wall w (from WallClass.vector()) and the
    oracle value sw_x."""
    if len(w) != lattice.rank:  # the dot products below need the wall's length
        raise ParameterError(
            f"vectors of length {len(omega)}, {len(w)} on a rank-{lattice.rank} lattice"
        )
    action = f.adjoint()
    certificate = f._dual_unipotent
    dual = _mat_vec(lattice.gram, w)  # <v, w> = v . dual
    if certificate is None:
        _check_sweep(n_max)
        m, lo, hi, method = 1, -n_max, n_max + 1, "sweep"
        walk = orbit_walk(action, omega, lo, hi)
        sign = {n: _sign(_dot(v, dual)) for n, v in walk}.__getitem__
        brackets = [(lo, hi)]
    else:
        m = certificate[0]
        coeffs = _residue_coefficients(action, certificate, omega, dual)
        brackets = [
            (m * lo + r, m * hi + r)
            for r, abc in enumerate(coeffs)
            for lo, hi in _root_brackets(*abc)
        ]

        def sign(n):
            k, r = divmod(n, m)
            a, b, c = coeffs[r]
            return _sign(a + b * k + c * (k * (k - 1) // 2))

        # m steps past every bracket and past both ends show the sign of
        # each residue on the unbounded stretches beyond
        lo = min([-n_max] + [x for x, _ in brackets]) - m
        hi = max([n_max + 1] + [y for _, y in brackets]) + m
        method = "certificate"
    window = min(STAB_WINDOW, n_max)
    # stretches: below, low window, middle, high window, above; the record is 1..3
    edges = (-n_max, -n_max + window, n_max + 2 - window, n_max + 2)
    cuts = sorted({lo, hi + 1, *edges, *(x for a, b in brackets for x in (a, b + 1))})
    sides, record = [set() for _ in range(5)], []
    for start, stop in pairwise(cuts):
        # step n has the sign pattern[(n - start) % len(pattern)]; outside the
        # brackets the sign depends only on n mod m, so m steps show it all
        dense = any(a <= start <= b for a, b in brackets)
        pattern = tuple(map(sign, range(start, stop if dense else min(stop, start + m))))
        pattern = pattern[:1] if len(set(pattern)) == 1 else pattern
        stretch = bisect_right(edges, start)
        if 0 < stretch < 4:
            if 0 in pattern:
                raise _on_wall(start + pattern.index(0))
            record.append((start, stop - 1, pattern))
        sides[stretch].update(pattern)
    below, low, _, high, above = sides
    if len(low) != 1 or len(high) != 1:
        raise _unstable(n_max)
    # one pass over the record: a piece of one sign shows its two ends,
    # any other every step; the record holds no 0, so a change of side
    # from step n to n+1 counts the new side times sw_x at n
    crossings = {}
    if sw_x:
        last, last_side = record[0][0], record[0][2][0]
        for a, b, pattern in record:
            if len(pattern) == 1:
                side = pattern[0]
                if side != last_side:
                    crossings[last] = side * sw_x
                last, last_side = b, side
                continue
            for n, side in zip(range(a, b + 1), cycle(pattern)):
                if side != last_side:
                    crossings[last] = side * sw_x
                last, last_side = n, side
    return OrbitSummary(
        crossings=crossings,
        stabilized=below <= low and above <= high,
        steps_used=2 * n_max + 1,
        method=method,
    )


def unique_crossing_index(
    lattice: IntegralLattice,
    f: Isometry,
    spinc: SpinCData,
    omega0,
    wall: WallClass,
    n_max: int = 1000,
) -> int:
    """Index n of the single segment where the orbit crosses the wall.

    Raises UniquenessViolationError when the orbit crosses zero times or
    more than once (the configuration is not parabolic-with-one-crossing).
    A zero oracle value raises ParameterError once the inputs are checked,
    before the orbit is read.
    """
    _check_orbit_inputs(lattice, f, spinc, n_max)
    omega, w = cone_point(lattice, omega0), wall.vector()
    if spinc.sw_x == 0:
        raise ParameterError("crossing index is undefined when the oracle value is zero")
    hits = sorted(_orbit_swtot(lattice, f, spinc.sw_x, omega, w, n_max).crossings)
    if len(hits) != 1:
        raise UniquenessViolationError(
            f"expected exactly one wall crossing, found {len(hits)} at {hits}"
        )
    return hits[0]


def power_swtot(
    lattice: IntegralLattice,
    f: Isometry,
    d: int,
    spinc: SpinCData,
    omega0,
    wall: WallClass,
    n_max: int = 1000,
) -> int:
    """Total for the d-th power of the map, in the infinite-orbit regime.

    Requires the spin-c orbit to show no return within n_max steps; the
    result provably equals the total for f itself, and both totals are
    computed and compared, so the equality is checked rather than assumed.
    The inputs are checked first, with orbit_swtot's checks and messages,
    and the ray and the wall made integer once; then the power and the
    spin-c orbit are asked about, and the power's map is checked again
    before its total is computed.  Two totals that differ raise
    StabilizationError when either record was swept or is not stabilized,
    since a longer window may make them agree; two certified, stabilized
    records both equal sw_x times half the change of wall side from below
    the low end to beyond the high end, so there a difference raises
    AssertionError.
    """
    _check_orbit_inputs(lattice, f, spinc, n_max)
    if d < 1:
        raise ParameterError(f"power must be a positive integer, got {d}")
    status = spinc_orbit(lattice, f, spinc.c1, bound=n_max)
    if status.finite:
        raise ParameterError(
            f"spin-c orbit is finite (period {status.period}); "
            "use finite_orbit_swtot for the cyclic bookkeeping"
        )
    omega, w = cone_point(lattice, omega0), wall.vector()
    base = _orbit_swtot(lattice, f, spinc.sw_x, omega, w, n_max)
    g = f.power(d)
    _check_map(lattice, g)
    powered = _orbit_swtot(lattice, g, spinc.sw_x, omega, w, n_max)
    if powered.total != base.total:
        if all(r.method == "certificate" and r.stabilized for r in (base, powered)):
            raise AssertionError("power invariance violated: arithmetic bug")
        raise _unstable(n_max)
    return powered.total


def finite_orbit_swtot(orbit_size: int, edge_values, d: int) -> int:
    """Cyclic bookkeeping when the spin-c orbit is finite with N elements.

    edge_values[k] is the contribution of the k-th segment around the
    orbit cycle.  The d-step concatenated path is walked explicitly and
    each edge counted with its multiplicity; the result is checked against
    the closed form lcm(d, N)/N * sum(edge_values) before returning.
    """
    if orbit_size < 1 or d < 1:
        raise ParameterError("orbit size and power must be positive")
    edges = [_as_int(x) for x in edge_values]
    if len(edges) != orbit_size:
        raise ParameterError(f"expected {orbit_size} edge values, got {len(edges)}")
    n = orbit_size
    counts = [0] * n
    period_d = n // math.gcd(d, n)  # orbit size under the d-th power
    for k in range(period_d):
        for j in range(d):
            counts[(d * k + j) % n] += 1
    total = sum(c * e for c, e in zip(counts, edges))
    multiplicity = math.lcm(d, n) // n
    if any(c != multiplicity for c in counts):
        raise AssertionError
    if total != multiplicity * sum(edges):
        raise AssertionError
    return total


def spinc_orbit(lattice: IntegralLattice, f: Isometry, c1, bound: int = 1000) -> OrbitStatus:
    """Iterate c1 under the dual action A of f; report the period if the
    class returns within the bound, else no-return-within-bound.

    When A^m = I + N with N^3 = 0 a finite orbit has period dividing m, so
    at most min(bound, m) steps are taken: were N c1 != 0 and
    A^(m*k) c1 = c1 for some k >= 1, applying N to
    k*N c1 + k(k-1)/2 * N^2 c1 = 0 would give N^2 c1 = 0, hence
    k*N c1 = 0; so a finite orbit has N c1 = 0 and A^m c1 = c1.  Other maps
    are stepped up to the bound, which must then be at most SWEEP_N_MAX
    (ResourceBoundError otherwise, naming the bound as n_max, the option the
    CLI reads it from)."""
    _check_acts_on(lattice, f)
    if bound < 1:
        raise ParameterError("bound must be positive")
    start = _as_vector(c1, lattice.rank)
    action = f.adjoint()
    certificate = f._dual_unipotent
    if certificate is None:
        _check_sweep(bound)
    steps = bound if certificate is None else min(bound, certificate[0])
    for n, v in orbit_walk(action, start, 0, steps):
        if n and v == start:
            return OrbitStatus(finite=True, period=n, bound=bound)
    return OrbitStatus(finite=False, period=None, bound=bound)


def classify_isometry(lattice: IntegralLattice, f: Isometry) -> str:
    """Elliptic (finite order), parabolic (infinite order, all eigenvalues
    on the unit circle) or hyperbolic (spectral radius > 1) on a signature
    (1, n, 0) lattice, read off the dual action f^-1, which has the same
    unipotent power: a unipotent isometry there has Jordan blocks of size
    <= 3, so f is hyperbolic iff it has none, and elliptic iff N = 0."""
    _check_acts_on(lattice, f)
    signature = lattice.signature()
    if signature[0] != 1 or signature[2]:
        raise ParameterError(f"classification needs signature (1, n, 0), got {signature}")
    certificate = f._dual_unipotent
    if certificate is None:
        return "hyperbolic"
    return "parabolic" if any(any(row) for row in certificate[1]) else "elliptic"


def _require_disc_coordinates(lattice: IntegralLattice) -> None:
    """Refuse a lattice whose gram is not the standard diag(1,-1,-1), the
    only coordinates the disc model is drawn in."""
    if lattice.gram != STANDARD_GRAM:
        raise ParameterError("disc projection needs the standard diag(1,-1,-1) coordinates")


def disc_project(lattice: IntegralLattice, omega) -> tuple[float, float]:
    """Project a cone ray to the open unit disc: normalize to the
    hyperboloid x^2 - y^2 - z^2 = 1, then (x, y, z) -> (y/(1+x), z/(1+x)).

    Only defined in the standard diag(1,-1,-1) coordinates, where the
    hyperboloid equation matches the gram.  v and -v are the same point of
    the disc model, so a ray is projected from its x > 0 representative
    (x != 0 on a ray of positive square), whichever sheet is the cone."""
    _require_disc_coordinates(lattice)
    vec = cone_point(lattice, omega)
    if vec[0] < 0:
        vec = tuple(-c for c in vec)
    scale = math.sqrt(float(lattice.norm(vec)))
    x, y, z = (float(c) / scale for c in vec)
    return (y / (1.0 + x), z / (1.0 + x))
