"""Independent reference evaluations of the rho and eta sums, of the
orbit crossing sum and of the metabolizer search.

The float oracles evaluate the same sums as the exact code but entirely
in complex double arithmetic, with no use of the package's field
machinery.  rho_table_cyclotomic is the exact reference for the integer
rho tables: it evaluates the defining root-of-unity sum in Q(zeta_n).
eta_variant_per_s, fourier_closed_form_product and
fourier_unit_ratio_product are the exact references for the field
formulas: one root_sum per character s over weights multiplied here, and
the Fourier forms as products of their factors at every j, with none of
eta's per-divisor trace sums or conjugated unit ratios; each eta sum is a
full field element, checked rational by as_rational.  These references
and rho_table_cyclotomic divide through euclidean_inverse, an
extended-Euclid inverse at every exponent, so they share no Galois
conjugate with the package's eta._inverse.
cyclotomic_polynomial_by_division is the reference for
cyclotomic.cyclotomic_polynomial: x^n - 1 divided by Phi_d over every
proper divisor d, at every n, with its own division loop, where the
package builds Phi_n from Phi_(n/p) at the largest prime p of n and
never divides x^n - 1.
schoolbook_product is the reference for the package's coefficient
products (cyclotomic._product, packed into one integer product from
_PACKED_DEGREE terms on): every pair of coefficients multiplied and added
in its own loop.  euclidean_inverse is the reference for eta._inverse,
whose base case is a closed form: the package's extended-Euclid
Cyclotomic.inverse, which no package path calls.
trace_numerator_by_ramanujan is the per-k reference for
Cyclotomic._trace_numerators: the numerators against Ramanujan's sums
c_n(j) (ramanujan_sums, by the recursion over the divisors of n, with no
Moebius function), where the package sums residue classes for all k at
once.
eta_matches and matching_classes are the reference for the matching:
an all-pairs scan over the public eta_table Fractions and a pairwise
partition, with none of the package's integer tables or canonical forms.
unipotent_power_ladder is the reference for lattice._unipotent_power on
rank 3: it tries the exponents 1, 2, 3, 4, 6, 12 in turn, with no
characteristic polynomial.  _orbit_sweep is the reference for
wallcross.orbit_swtot: it steps the
orbit through the whole range (and, for the stabilized flag, on to a
horizon beyond it) with its own loop and reads the signs
directly; it shares the input check, the error messages, cone_point
(which returns the integer ray), WallClass.vector() (the wall's integer
ray) and STAB_WINDOW
with the package, but not the package's orbit walk or its sign reader.
residue_coefficients_by_pairing is the reference for
wallcross._residue_coefficients: it steps A^r omega with its own loop and
takes each coefficient as a lattice pairing <u, w> with u = v, N v, N^2 v,
N from _unipotent_power of A itself, where the package dots v with the
rows of the wall's dual, read through the transposed certificate it stores.
The orbit, ladder and grid references multiply matrices with their own
index loops, _mat_mul and _mat_vec, not with the package's row-by-column
kernels, which are compared with sympy.
metabolizer_search_grid is the reference for lattice.metabolizer_search:
it walks the whole coordinate grid of the doubled lattice and pairs
candidates with the full form q + -q, which it builds from the half
lattice itself; with prune it also applies the invariance conditions
through the full map f + id, built the same way.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from lenswall.cyclotomic import root_of_unity, root_sum
from lenswall.errors import ParameterError, ResourceBoundError
from lenswall.eta import eta_table
from lenswall.lattice import (
    IntegralLattice,
    IsometricStructure,
    Isometry,
    _echelon,
    _identity,
    _in_span,
    _unipotent_power,
    metabolizer_check,
)
from lenswall.wallcross import (
    STAB_WINDOW,
    OrbitSummary,
    SpinCData,
    WallClass,
    _check_orbit_inputs,
    _on_wall,
    _sign,
    _unstable,
    cone_point,
)


@lru_cache(maxsize=None)
def ramanujan_sums(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^j) for j = 0 .. n-1: Ramanujan's sum c_n(j), the sum of the
    j-th powers of the primitive n-th roots of unity.

    The j-th powers of all n-th roots of unity sum to n * [n | j], and those
    roots split by their order d | n, so c_n(j) is n * [n | j] minus c_d(j)
    over the proper divisors d of n (Hardy-Wright, ch. XVI)."""
    lower = [ramanujan_sums(d) for d in range(1, n) if n % d == 0]
    return tuple(n * (j == 0) - sum(c[j % len(c)] for c in lower) for j in range(n))


def trace_numerator_by_ramanujan(x, k: int) -> int:
    """den * Tr(zeta_n^k * x), one k at a time: sum_i num_i * c_n(i + k)
    over the power-basis numerators of x."""
    n = x.order
    sums = ramanujan_sums(n)
    return sum(c * sums[(i + k) % n] for i, c in enumerate(x._num))


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_division(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first: x^n - 1 divided exactly by Phi_d for
    each proper divisor d of n, each divisor monic, so the long division
    needs no rational step; a nonzero remainder raises."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_polynomial_by_division(d)
        deg = len(den) - 1
        quot = [0] * (len(num) - deg)
        for i in range(len(num) - 1, deg - 1, -1):
            c = quot[i - deg] = num[i]
            if c:
                for j, b in enumerate(den, i - deg):
                    num[j] -= c * b
        if any(num[:deg]):
            raise AssertionError(f"Phi_{d} does not divide at n={n}")
        num = quot
    return tuple(num)


def schoolbook_product(a, b) -> list:
    """The coefficients of the product of the integer polynomials a and b,
    lowest degree first: out[i + j] += a[i] * b[j] for every pair."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def euclidean_inverse(n: int, m: int, c: int):
    """1 / (zeta_n^m + c) by the extended-Euclid Cyclotomic.inverse at every
    exponent, with no Galois conjugate, cached per (n, m, c): the field
    references divide through it, not through the package's eta._inverse."""
    return (root_of_unity(n, m) + c).inverse()


def rho_table_cyclotomic(n: int, q: int) -> tuple[Fraction, ...]:
    """Reduced eta invariants of L(n, q) for every character s = 0..n-1.

    Entry s is (1/n) * sum over lam with lam^n = 1, lam != 1 of
    (lam^s - 1) lam^q / ((lam^q - 1)(lam - 1)), collapsed to an exact
    rational.  The per-root base factors are shared across all s.
    """
    q %= n
    if n == 1:
        return (Fraction(0),)
    base = [euclidean_inverse(n, k * q % n, -1) * euclidean_inverse(n, k, -1) for k in range(1, n)]

    def lam_sum(s):
        """sum over lam = zeta_n^k, k = 1 .. n-1, of lam^(s+q) * base."""
        return root_sum(n, ((b, k * (s + q)) for k, b in enumerate(base, start=1)))

    total = lam_sum(0)
    # NotRationalError here would mean an arithmetic bug: the summation
    # set is Galois-stable, so the value is forced into Q.
    return tuple((lam_sum(s) - total).as_rational() / n for s in range(n))


def rho_float(n: int, q: int, s: int) -> float:
    total = 0j
    for k in range(1, n):
        lam = cmath.exp(2j * cmath.pi * k / n)
        total += (lam**s - 1) * lam**q / ((lam**q - 1) * (lam - 1))
    total /= n
    assert abs(total.imag) < 1e-9
    return total.real


def eta_float(p: int, q: int, s: int) -> float:
    return rho_float(2 * p, q, s) - rho_float(2 * p, q, (s + p) % (2 * p))


def eta_half_roots_float(p: int, q: int, s: int) -> float:
    total = 0j
    for k in range(1, 2 * p, 2):
        lam = cmath.exp(2j * cmath.pi * k / (2 * p))
        total += lam ** (s + q) / ((lam**q - 1) * (lam - 1))
    total /= p
    assert abs(total.imag) < 1e-9
    return total.real


def eta_odd_p_float(p: int, q: int, s: int) -> float:
    total = 0j
    for k in range(p):
        lam = cmath.exp(2j * cmath.pi * k / p)
        total += (-1) ** (s + 1) * lam ** (s + q) / ((lam**q + 1) * (lam + 1))
    total /= p
    assert abs(total.imag) < 1e-9
    return total.real


@lru_cache(maxsize=None)
def _per_s_weights(p: int, q: int, formula: str) -> tuple:
    """(k, weight) for eta_variant's half-roots or odd-p sum, each weight the
    product of its two cached inverses at order n, multiplied here: one
    weight per root, where the package takes one product per divisor."""
    n, c, ks = (2 * p, -1, range(1, 2 * p, 2)) if formula == "half-roots" else (p, 1, range(p))
    return tuple((k, euclidean_inverse(n, k * q % n, c) * euclidean_inverse(n, k, c)) for k in ks)


def eta_variant_per_s(p: int, q: int, s: int, formula: str) -> Fraction:
    """eta_variant's half-roots or odd-p sum at s with one root_sum of the
    weights per s, at the exponent k * (s + q): no sum is shared between
    characters and no sign symmetry is used."""
    order = 2 * p if formula == "half-roots" else p
    sign = -1 if formula == "odd-p" and s % 2 == 0 else 1
    weights = _per_s_weights(p, q % (2 * p), formula)
    return sign * root_sum(order, ((b, k * (s + q)) for k, b in weights)).as_rational() / p


def fourier_closed_form_product(p: int, q: int, j: int):
    """omega^(jq) / ((omega^(jq) + 1)(omega^j + 1)) as two products."""
    inverses = euclidean_inverse(p, j * q % p, 1) * euclidean_inverse(p, j % p, 1)
    return root_of_unity(p, j * q) * inverses


def fourier_unit_ratio_product(p: int, q: int, j: int):
    """((omega^(-jq) - 1)(omega^j - 1)) / ((omega^(-2jq) - 1)(omega^(2j) - 1))
    with the numerator multiplied out as a product of its two factors."""
    num = (root_of_unity(p, -j * q) - 1) * (root_of_unity(p, j) - 1)
    return num * euclidean_inverse(p, -2 * j * q % p, -1) * euclidean_inverse(p, 2 * j % p, -1)


def eta_matches(p: int, q: int, q_prime: int) -> tuple[int, ...]:
    """Every odd unit a mod 2p with eta(p, q, s) == eta(p, q', a*s) for all
    s, compared as Fractions; p must be within the default budget."""
    n = 2 * p
    left, right = eta_table(p, q), eta_table(p, q_prime)
    return tuple(
        a for a in range(1, n, 2)
        if gcd(a, n) == 1 and all(left[s] == right[(a * s) % n] for s in range(n))
    )


def partition(units, related) -> list[list[int]]:
    """Classes of units under the equivalence related(q, q'): each class is
    the first remaining unit with every remaining unit related to it."""
    remaining, classes = list(units), []
    while remaining:
        classes.append([q for q in remaining if related(remaining[0], q)])
        remaining = [q for q in remaining if q not in classes[-1]]
    return classes


def matching_classes(p: int) -> list[list[int]]:
    """The component classes of X(p), odd p, by pairwise matching."""
    units = [a for a in range(1, 2 * p, 2) if gcd(a, 2 * p) == 1]
    return partition(units, lambda q, qp: bool(eta_matches(p, q, qp)))


def _mat_mul(a, b):
    """a b for square a, b, entry by entry over the index k."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


# An integer matrix of size <= 3 whose eigenvalues are roots of unity has
# them of order 1, 2, 3, 4 or 6, so such a matrix has a unipotent power
# with exponent dividing 12 (and a finite-order one has f^12 = id).
UNIPOTENT_EXPONENTS = (1, 2, 3, 4, 6, 12)


def unipotent_power_ladder(mat):
    """(m, N, N^2) for the least m in UNIPOTENT_EXPONENTS such that
    N = mat^m - I has N^3 = 0, or None; exact for matrices of size <= 3."""
    power, done = _identity(len(mat)), 0
    for m in UNIPOTENT_EXPONENTS:
        for _ in range(m - done):
            power = _mat_mul(power, mat)
        done = m
        nil = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(power))
        square = _mat_mul(nil, nil)
        if not any(any(row) for row in _mat_mul(square, nil)):
            return m, nil, square
    return None


def _orbit_pairings(lattice, f, wall, omega0, n_max, horizon=None):
    """Pairings <A^n omega0, w> for n = -h .. h+1 with A the dual action of
    f and h = horizon (n_max by default); all integer arithmetic after
    clearing denominators.  A zero pairing at a step in [-n_max, n_max+1]
    raises GenericityError for the first such step."""
    h = n_max if horizon is None else horizon
    omega = cone_point(lattice, omega0)
    w = wall.vector()
    forward = f.adjoint().matrix
    backward = f.matrix  # inverse of the adjoint
    pair = lambda v: lattice.pairing(v, w)
    values = {0: pair(omega)}
    v = omega
    for n in range(1, h + 2):
        v = _mat_vec(forward, v)
        values[n] = pair(v)
    v = omega
    for n in range(1, h + 1):
        v = _mat_vec(backward, v)
        values[-n] = pair(v)
    for n in range(-n_max, n_max + 2):
        if values[n] == 0:
            raise _on_wall(n)
    return values


def _orbit_sweep(
    lattice: IntegralLattice,
    f: Isometry,
    spinc: SpinCData,
    omega0,
    wall: WallClass,
    n_max: int = 1000,
    horizon: int | None = None,
) -> OrbitSummary:
    """orbit_swtot by stepping the orbit through every n in
    [-n_max, n_max + 1], for every map: the reference the package's
    certificate and stepped paths are tested against.  With a horizon the
    orbit is stepped on through [-horizon, horizon + 1], and stabilized
    says whether the wall side stays fixed from each end of the record out
    to there; without one it is True, as for the package's sweep."""
    _check_orbit_inputs(lattice, f, spinc, n_max)
    window = min(STAB_WINDOW, n_max)
    values = _orbit_pairings(lattice, f, wall, omega0, n_max, horizon)
    signs = {n: _sign(v) for n, v in values.items()}
    crossings = {}
    for n in range(-n_max, n_max + 1):
        c = (signs[n + 1] - signs[n]) // 2
        if c and spinc.sw_x:
            crossings[n] = c * spinc.sw_x
    low = [signs[n] for n in range(-n_max, -n_max + window)]
    high = [signs[n] for n in range(n_max + 2 - window, n_max + 2)]
    if len(set(low)) != 1 or len(set(high)) != 1:
        raise _unstable(n_max)
    stabilized = horizon is None or all(
        len({signs[n] for n in beyond}) == 1
        for beyond in (range(-horizon, -n_max + 1), range(n_max + 1, horizon + 2))
    )
    return OrbitSummary(crossings=crossings, stabilized=stabilized, steps_used=2 * n_max + 1)


def residue_coefficients_by_pairing(lattice, f, omega, w) -> list[tuple[int, int, int]]:
    """(<v, w>, <N v, w>, <N^2 v, w>) for v = A^r omega, r = 0 .. m-1, each
    a lattice pairing, where A is the dual action of f and (m, N, N^2) its
    unipotent power, computed afresh from A rather than read off the
    certificate f stores."""
    forward = f.adjoint().matrix
    m, nil, square = _unipotent_power(forward)
    coeffs, v = [], omega
    for _ in range(m):
        images = (v, _mat_vec(nil, v), _mat_vec(square, v))
        coeffs.append(tuple(lattice.pairing(u, w) for u in images))
        v = _mat_vec(forward, v)
    return coeffs


def metabolizer_search_grid(
    structure: IsometricStructure,
    coefficient_bound: int = 1,
    budget: int = 2_000_000,
    prune: bool = False,
) -> list[tuple[int, ...]] | None:
    """metabolizer_search by walking all (2b+1)^rank coordinate tuples.

    Candidates are primitive isotropic vectors with coordinates in
    [-coefficient_bound, coefficient_bound], first nonzero coordinate
    positive, enumerated lexicographically; a depth-first search keeps
    partial families independent and isotropic and accepts once a
    half-rank family passes metabolizer_check.  The budget caps the grid,
    checked before it is enumerated, and the extension steps examined.

    With prune, the search also applies the necessary conditions of an
    F-invariant isotropic family, F = f + id: a candidate needs
    <v, Fv> = 0, and a new v needs <v, Fu> = <u, Fv> = 0 for every chosen
    u.  They drop only families that cannot pass metabolizer_check, so the
    answer is the same; the grid order and the final check stay.
    """
    if coefficient_bound < 1:
        raise ParameterError("coefficient bound must be >= 1")
    # the full form q + -q on the doubled lattice, built here from the half
    q = structure.lattice.gram
    half = len(q)
    zeros = (0,) * half
    lat = IntegralLattice(
        tuple(row + zeros for row in q) + tuple(zeros + tuple(-x for x in row) for row in q)
    )
    # the full map f + id, built here from the half's map
    block_map = tuple(row + zeros for row in structure.map.matrix) + tuple(
        zeros + tuple(int(i == j) for j in range(half)) for i in range(half)
    )
    rank = lat.rank
    grid = (2 * coefficient_bound + 1) ** rank
    if grid > budget:
        raise ResourceBoundError(
            f"metabolizer search grid of {grid} coordinate tuples exceeds its budget of {budget}"
        )
    span = range(-coefficient_bound, coefficient_bound + 1)
    candidates, images = [], {}
    for coords in product(span, repeat=rank):
        vec = tuple(coords)
        nonzero = [abs(x) for x in vec if x]
        if not nonzero:
            continue
        if next(x for x in vec if x) < 0:  # keep one vector per +-pair
            continue
        if gcd(*nonzero) != 1:
            continue
        if lat.norm(vec) != 0:
            continue
        if prune:
            images[vec] = _mat_vec(block_map, vec)
            if lat.pairing(vec, images[vec]) != 0:
                continue
        candidates.append(vec)

    steps = 0

    def extend(start: int, chosen: list[tuple[int, ...]]):
        nonlocal steps
        if len(chosen) == half:
            return list(chosen) if metabolizer_check(structure, chosen) else None
        basis, pivots = _echelon(chosen)
        for idx in range(start, len(candidates)):
            steps += 1
            if steps > budget:
                raise ResourceBoundError(
                    f"metabolizer search exceeded its budget of {budget} steps"
                )
            v = candidates[idx]
            if any(lat.pairing(v, u) != 0 for u in chosen) or _in_span(basis, pivots, v):
                continue
            if prune and any(
                lat.pairing(v, images[u]) != 0 or lat.pairing(u, images[v]) != 0 for u in chosen
            ):
                continue
            found = extend(idx + 1, chosen + [v])
            if found is not None:
                return found
        return None

    return extend(0, [])
