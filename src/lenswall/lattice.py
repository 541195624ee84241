"""Integral lattices with symmetric pairings, their isometries, sphere
reflections, the orientation sign on the positive part, metabolizers of
doubled structures kept as their half, and the formal dimension formula.

Vectors are plain integer tuples; matrices are tuples of rows acting on
column coordinate vectors, so the columns of an isometry matrix are the
images of the basis vectors.

All linear algebra is on integers: products multiply row by column
(`_mat_mul`, `_mat_vec`, `_dot`), one division-free Gauss-Jordan kernel,
`_echelon`, answers every rank, span and inverse question, and one
characteristic polynomial, `_charpoly`, gives the signature (Descartes'
rule of signs) and the unipotent power of a map (Kronecker's theorem: its
cyclotomic factors, which `lenswall.poly` strips on integers).
Every map derived from an isometry is one of its powers, the inverse
(and adjoint) power(-1) included, kept per map: each is built once, powers
share their halves, and each carries its inverse and reads the unipotent
power of its dual action off its base's, with no characteristic polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import pairwise, product
from math import gcd, lcm
from operator import mul

from .errors import ParameterError, ResourceBoundError
from .poly import _cyclotomic_factors

__all__ = [
    "IntegralLattice",
    "Isometry",
    "IsometricStructure",
    "reflection_sphere",
    "alpha_invariant",
    "double_structure",
    "metabolizer_check",
    "metabolizer_search",
    "sw_formal_dimension",
    "DEFAULT_SEARCH_BUDGET",
    "STANDARD_GRAM",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
]

# The rank-3 form diag(1,-1,-1) on (S, E1, E2) and the square -1 spheres
# S +- E1 + E2 used throughout the wall-crossing scenarios.
STANDARD_GRAM = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
SIGMA_PLUS = (1, 1, 1)
SIGMA_MINUS = (1, -1, 1)

# The default budget of metabolizer_search (see its docstring).
DEFAULT_SEARCH_BUDGET = 2_000_000


def _as_int(x) -> int:
    """x as an int; a value that int() would truncate is rejected."""
    n = int(x)
    if n != x:
        raise ParameterError(f"expected an integer, got {x}")
    return n


def _as_vector(v, rank: int) -> tuple[int, ...]:
    vec = tuple(_as_int(x) for x in v)
    if len(vec) != rank:
        raise ParameterError(f"vector length {len(vec)} does not match rank {rank}")
    return vec


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _mat_mul(a, b):
    """a b, each entry a row of a times a column of b (taken once)."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _transpose(m):
    return tuple(zip(*m))


def _shift(m, c):
    """m + c*I."""
    return tuple(tuple(x + c * (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))


def _charpoly(m) -> list[int]:
    """Integer coefficients of det(xI - m), constant term first, by
    Faddeev-LeVerrier: M_1 = I, c_(n-k) = -tr(m M_k)/k (an exact division)
    and M_(k+1) = m M_k + c_(n-k) I, so n - 1 matrix products."""
    n = len(m)
    coeffs = [0] * n + [1]
    mk = m  # m M_k
    for k in range(1, n + 1):
        coeffs[n - k] = -sum(mk[i][i] for i in range(n)) // k
        if k < n:
            mk = _mat_mul(m, _shift(mk, coeffs[n - k]))
    return coeffs


def _unipotent_power(mat):
    """(m, N, N^2) for the least m >= 1 such that N = mat^m - I has N^3 = 0,
    or None (hyperbolic maps); then mat^(m*k) = I + k*N + k(k-1)/2 * N^2 for
    every integer k.  By Kronecker's theorem the characteristic polynomial
    has all its roots on the unit circle iff it is a product of Phi_k, so a
    map whose polynomial keeps a factor of positive degree once
    `poly._cyclotomic_factors` has stripped them is hyperbolic.  Otherwise
    mat^m - I is nilpotent iff every k found divides m, so m is their lcm."""
    ks, rest = _cyclotomic_factors(_charpoly(mat))
    if len(rest) > 1:
        return None
    m = lcm(*ks)
    nil = _shift(reduce(_mat_mul, [mat] * m), -1)
    square = _mat_mul(nil, nil)
    if any(any(row) for row in _mat_mul(square, nil)):
        return None
    return m, nil, square


def _leading(v) -> int:
    """The first nonzero entry of v, or 0 for the zero vector."""
    return next((x for x in v if x), 0)


def _primitive(row):
    """row divided by the gcd of its entries, signed so that its first
    nonzero entry is positive; the zero row is returned as it is."""
    g = gcd(*row)
    if _leading(row) < 0:
        g = -g
    return [x // g for x in row] if g else row


def _echelon(rows):
    """Gauss-Jordan elimination on integer rows, without division.

    Returns (basis, pivots): the reduced row echelon basis of the rational
    row span, each row scaled to a primitive integer vector with a positive
    pivot, and the ascending pivot columns.  Every basis row vanishes in
    the other rows' pivot columns, so the basis depends only on the span.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[pivot], rows[top] = rows[top], _primitive(rows[pivot])
        p = rows[top]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = _primitive([p[col] * x - row[col] * y for x, y in zip(row, p)])
        pivots.append(col)
    return [tuple(r) for r in rows[: len(pivots)]], pivots


def _in_span(basis, pivots, v):
    """True iff v lies in the rational span of an _echelon basis."""
    v = list(v)
    for b, p in zip(basis, pivots):
        c = v[p]
        if c:
            v = [b[p] * x - c * y for x, y in zip(v, b)]
    return not any(v)


class IntegralLattice:
    """A free abelian group with a symmetric integer pairing.

    A distinguished positive class may be designated when the signature
    has a single positive square; it selects the positive-cone component
    used for orientation bookkeeping.
    """

    def __init__(self, gram, positive_class=None):
        gram = tuple(tuple(_as_int(x) for x in row) for row in gram)
        rank = len(gram)
        if any(len(row) != rank for row in gram):
            raise ParameterError("gram matrix must be square")
        if gram != _transpose(gram):
            raise ParameterError("gram matrix must be symmetric")
        self.gram = gram
        self.rank = rank
        if positive_class is not None:
            positive_class = _as_vector(positive_class, rank)
            if self.pairing(positive_class, positive_class) <= 0:
                raise ParameterError("designated positive class must have positive square")
        self.positive_class = positive_class

    def pairing(self, u, v):
        if len(u) != self.rank or len(v) != self.rank:
            raise ParameterError(
                f"vectors of length {len(u)}, {len(v)} on a rank-{self.rank} lattice"
            )
        return _dot(u, _mat_vec(self.gram, v))

    def norm(self, v):
        return self.pairing(v, v)

    @cached_property
    def _nondegenerate(self) -> bool:
        """Whether the gram has full rank: one elimination per lattice."""
        return len(_echelon(self.gram)[1]) == self.rank

    def signature(self) -> tuple[int, int, int]:
        """(positive, negative, zero) inertia.  The gram's eigenvalues are
        real, so Descartes' rule of signs is exact on its characteristic
        polynomial: the zero ones are its vanishing lowest coefficients and
        the positive ones its sign changes."""
        coeffs = _charpoly(self.gram)
        zero = next(k for k, c in enumerate(coeffs) if c)
        positive = sum(a * b < 0 for a, b in pairwise([c for c in coeffs if c]))
        return positive, self.rank - zero - positive, zero

    def __eq__(self, other):
        return (
            isinstance(other, IntegralLattice)
            and self.gram == other.gram
            and self.positive_class == other.positive_class
        )

    def __repr__(self):
        return f"IntegralLattice(rank={self.rank}, gram={self.gram})"


def standard_lattice() -> IntegralLattice:
    """diag(1,-1,-1) with the positive cone chosen so s = (1,0,0) is positive."""
    return IntegralLattice(STANDARD_GRAM, positive_class=(1, 0, 0))


class Isometry:
    """An integer matrix preserving the lattice pairing exactly."""

    # (base, d) when this map is base^d (see power), else None
    _root: tuple["Isometry", int] | None = None

    def __init__(self, lattice: IntegralLattice, matrix):
        matrix = tuple(tuple(_as_int(x) for x in row) for row in matrix)
        if len(matrix) != lattice.rank or any(len(r) != lattice.rank for r in matrix):
            raise ParameterError("isometry matrix does not match lattice rank")
        g = lattice.gram
        mt = _transpose(matrix)
        if _mat_mul(_mat_mul(mt, g), matrix) != g:
            raise ParameterError("matrix does not preserve the pairing")
        # [M | I] reduces to [I | M^-1] exactly when M^-1 is integral, which
        # for an integer matrix M means det M = +-1
        n = lattice.rank
        rows, pivots = _echelon([row + e for row, e in zip(matrix, _identity(n))])
        if pivots != list(range(n)) or any(rows[i][i] != 1 for i in range(n)):
            raise ParameterError("isometry must have determinant +-1")
        self.lattice = lattice
        self.matrix = matrix
        self._inverse = tuple(row[n:] for row in rows)

    @cached_property
    def _dual_unipotent(self):
        """(m, N^T, (N^2)^T), _unipotent_power of the transposed dual action
        (see adjoint), once per map: the rows an orbit reads its wall by.

        A power f = base^d reads it off the base's, with no new
        characteristic polynomial.  The dual actions are B and A = B^d.  Put
        g = gcd(m, d) and k = d/g; then A^(m/g) = (B^m)^k = (I + N)^k =
        I + kN + k(k-1)/2 N^2, as N^3 = 0, so the certificate is
        (m/g, kN + k(k-1)/2 N^2, k^2 N^2), transposed term by term, as it is
        linear in N and N^2.  It is the one _unipotent_power would find:
        - m/g is least: A^j - I is nilpotent iff B^(dj) - I is, iff m | dj,
          iff m/g | j;
        - d = 0 gives the identity, (1, 0, 0);
        - for d != 0 it is None iff the base's is: |lambda^d| != 1 iff
          |lambda| != 1, and (N (kI + k(k-1)/2 N))^3 vanishes iff N^3 does,
          since kI + k(k-1)/2 N is invertible over Q."""
        if self._root is None:
            return _unipotent_power(_transpose(self._inverse))
        base, d = self._root
        if d == 0:
            zero = ((0,) * self.lattice.rank,) * self.lattice.rank
            return 1, zero, zero
        certificate = base._dual_unipotent
        if certificate is None:
            return None
        m, nil, square = certificate
        g = gcd(m, d)
        k = d // g
        c = k * (k - 1) // 2
        nil_d = tuple(tuple(k * x + c * y for x, y in zip(*rows)) for rows in zip(nil, square))
        return m // g, nil_d, tuple(tuple(k * k * y for y in row) for row in square)

    @cached_property
    def _orientation(self) -> int:
        """alpha_invariant's sign, once per map: +1 or -1 as <f v, v> is
        positive or negative for the designated positive class v.  A
        failure raises and so is not cached, and raises again on every
        call."""
        lattice = self.lattice
        v = lattice.positive_class
        if v is None:
            raise ParameterError("lattice has no designated positive class")
        value = _dot(_mat_vec(self.matrix, v), _mat_vec(lattice.gram, v))
        if value == 0:
            raise ParameterError("isometry sent the positive class orthogonal to itself")
        return 1 if value > 0 else -1

    @classmethod
    def _checked(cls, lattice: IntegralLattice, matrix, inverse) -> "Isometry":
        # trusted fast path: matrix is an isometry of lattice and inverse its
        # integral inverse, so both checks of __init__ hold already
        self = object.__new__(cls)
        self.lattice, self.matrix, self._inverse = lattice, matrix, inverse
        return self

    def apply(self, v):
        return _mat_vec(self.matrix, _as_vector(v, self.lattice.rank))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other, as function composition.  A product of
        isometries is one, and its inverse is other^-1 self^-1."""
        if self.lattice.gram != other.lattice.gram:
            raise ParameterError("isometries live on different lattices")
        matrix = _mat_mul(self.matrix, other.matrix)
        return Isometry._checked(self.lattice, matrix, _mat_mul(other._inverse, self._inverse))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Isometry":
        """self^-1, the map's one inverse object (see power)."""
        return self.power(-1)

    def power(self, d: int) -> "Isometry":
        """self^d: self for d = 1, the identity (its own inverse) for 0,
        the known inverse for -1, and otherwise the square of the power at
        d/2 (rounded toward 0), times self^+-1 when d is odd.  Each product
        carries its inverse (see compose), and a new power (self, d), from
        which _dual_unipotent derives its certificate.

        Each power is built once per map: self keeps the powers it has
        built in a dict keyed by d (an Isometry is not hashable, so no
        cache keyed by the map can), and reads every factor through it, so
        powers share their halves and a later call returns the same object."""
        if d == 1:
            return self
        powers = self.__dict__.setdefault("_powers", {})
        result = powers.get(d)
        if result is not None:
            return result
        if d == 0:
            result = identity_isometry(self.lattice)
        elif d == -1:
            result = Isometry._checked(self.lattice, self._inverse, self.matrix)
        else:
            unit = 1 if d > 0 else -1
            half = self.power(unit * (abs(d) // 2))
            result = half * half
            if d & 1:
                result = result * self.power(unit)
        result._root = (self, d)
        powers[d] = result
        return result

    def adjoint(self) -> "Isometry":
        """The pairing-adjoint gram^-1 f^T gram, the action induced on the
        dual coordinates.  It needs a nondegenerate gram, which the lattice
        decides once, and is then the known inverse, the object inverse()
        returns: f^T gram f = gram gives gram^-1 f^T gram = f^-1."""
        if not self.lattice._nondegenerate:
            raise ParameterError("matrix is singular")
        return self.inverse()

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.lattice.rank)

    def __eq__(self, other):
        return (
            isinstance(other, Isometry)
            and self.matrix == other.matrix
            and self.lattice.gram == other.lattice.gram
        )

    def __repr__(self):
        return f"Isometry({self.matrix})"


def identity_isometry(lattice: IntegralLattice) -> Isometry:
    identity = _identity(lattice.rank)
    return Isometry._checked(lattice, identity, identity)


def reflection_sphere(lattice: IntegralLattice, sigma) -> Isometry:
    """The reflection x -> x + 2(x . sigma) sigma in a square -1 class.
    For any symmetric gram it preserves the pairing and is its own
    inverse, since R x . sigma = -(x . sigma)."""
    sigma = _as_vector(sigma, lattice.rank)
    g = _mat_vec(lattice.gram, sigma)  # x . sigma = x . g
    if (square := _dot(sigma, g)) != -1:
        raise ParameterError(f"reflection class must have square -1, got {square}")
    matrix = tuple(
        tuple((i == j) + 2 * s * x for j, x in enumerate(g)) for i, s in enumerate(sigma)
    )
    return Isometry._checked(lattice, matrix, matrix)


def alpha_invariant(f: Isometry) -> int:
    """+1 when f preserves the positive-cone component of the designated
    positive class, -1 when it swaps the components; decided once per map
    (Isometry._orientation)."""
    return f._orientation


def _check_acts_on(lattice: IntegralLattice, f: Isometry) -> None:
    """f must be an isometry of this lattice: same gram, same positive class."""
    if f.lattice != lattice:
        raise ParameterError("isometry does not act on the given lattice")


class IsometricStructure(namedtuple("IsometricStructure", "lattice map")):
    """The doubled structure (L + L, f + id, q + -q), stored as its half:
    the lattice L = (H, q) and an isometry f of L, which must act on it.  A
    vector of the doubled lattice is one tuple v = (x, y) of length
    2 rank(L); the block form is built into the derived pairing and map."""

    __slots__ = ()

    def __new__(cls, lattice: IntegralLattice, map: Isometry):
        _check_acts_on(lattice, map)
        return tuple.__new__(cls, (lattice, map))

    @property
    def rank(self) -> int:
        return 2 * self.lattice.rank

    def pairing(self, u, v) -> int:
        """(q + -q)(u, v) = q(x, x') - q(y, y')."""
        n, q = self.lattice.rank, self.lattice.pairing
        return q(u[:n], v[:n]) - q(u[n:], v[n:])

    def apply(self, v) -> tuple[int, ...]:
        """(f + id)(x, y) = (f x, y)."""
        n, v = self.lattice.rank, _as_vector(v, self.rank)
        return _mat_vec(self.map.matrix, v[:n]) + v[n:]


def double_structure(lattice: IntegralLattice, f: Isometry) -> IsometricStructure:
    """(H + H, f + id, q + -q) from a lattice and an isometry of it; only
    perfbench and the tests still call it, not the package."""
    return IsometricStructure(lattice, f)


def metabolizer_check(structure: IsometricStructure, vectors) -> bool:
    """True iff the rational span of the vectors is half-rank, the doubled
    form vanishes on it, and it is invariant under the doubled map.

    The criterion is a subspace condition, so it is unchanged by row
    operations on the spanning set; integral primitivity is not required.
    """
    vecs = [_as_vector(v, structure.rank) for v in vectors]
    basis, pivots = _echelon(vecs)
    if 2 * len(basis) != structure.rank:
        return False
    for i, u in enumerate(basis):
        for v in basis[i:]:
            if structure.pairing(u, v) != 0:
                return False
    for u in basis:
        if not _in_span(basis, pivots, structure.apply(u)):
            return False
    return True


def metabolizer_search(
    structure: IsometricStructure,
    coefficient_bound: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[tuple[int, ...]] | None:
    """Bounded exhaustive search for a metabolizer.

    Candidates are the primitive isotropic vectors v = (x, y) with
    coordinates in [-coefficient_bound, coefficient_bound] and first
    nonzero coordinate positive, in lexicographic order; a depth-first
    search keeps partial families independent and accepts once a
    half-rank family passes metabolizer_check.  Returns None when no
    metabolizer exists within the bound.

    The search runs on the half lattice L.  The form is q + -q, so v is
    isotropic iff q(x) = q(y), and each x is paired with the y of its norm.
    A vector of an F-invariant isotropic subspace, F = f + id, has
    <v, Fv> = x.q f x - q(y) = 0, so an x with x.q f x != q(x) is dropped
    before pairing; and a new v must satisfy <v, u> = <v, Fu> = <v, F^-1 u>
    = 0 for every chosen u.  Both prunings drop only families that cannot
    pass metabolizer_check, so the first family found is the one the
    search over the full coordinate grid would find.

    The budget caps the half-vector table, (2b+1)^rank(L) entries checked
    before it is built, and the isotropic pairs plus extension steps the
    search examines.
    """
    if coefficient_bound < 1:
        raise ParameterError("coefficient bound must be >= 1")
    n = structure.lattice.rank
    table = (2 * coefficient_bound + 1) ** n
    if table > budget:
        raise ResourceBoundError(
            f"metabolizer search table of {table} half-vectors exceeds its budget of {budget}"
        )
    q, f = structure.lattice.gram, structure.map
    qf = _mat_mul(q, f.matrix)
    qf_inv = _mat_mul(q, f.inverse().matrix)
    span = range(-coefficient_bound, coefficient_bound + 1)
    halves = list(product(span, repeat=n))
    duals = [_mat_vec(q, h) for h in halves]
    norms = [_dot(h, qh) for h, qh in zip(halves, duals)]
    minus_duals = [tuple(-c for c in qh) for qh in duals]
    by_norm: dict[int, list[int]] = {}
    for j, norm in enumerate(norms):
        by_norm.setdefault(norm, []).append(j)

    steps = 0

    def step(count: int = 1):
        nonlocal steps
        steps += count
        if steps > budget:
            raise ResourceBoundError(f"metabolizer search exceeded its budget of {budget} steps")

    # each candidate v = (x, y) carries the forms <., v>, <., Fv> and
    # <., F^-1 v> as rows: (q x, -q y), (q f x, -q y) and (q f^-1 x, -q y)
    candidates = []
    for i, x in enumerate(halves):
        if _leading(x) < 0:  # keep one vector per +-pair
            continue
        qfx = _mat_vec(qf, x)
        if _dot(x, qfx) != norms[i]:  # <v, Fv> != 0 for every partner y
            continue
        partners = by_norm[norms[i]]
        step(len(partners))  # one step per isotropic pair
        qx, qf_inv_x = duals[i], _mat_vec(qf_inv, x)
        g, nonzero = gcd(*x), any(x)  # gcd(x, y) = gcd(g, *y)
        for j in partners:
            y = halves[j]
            if (nonzero or _leading(y) > 0) and gcd(g, *y) == 1:
                my = minus_duals[j]
                candidates.append((x + y, (qx + my, qfx + my, qf_inv_x + my)))

    def extend(start: int, chosen: list[tuple[int, ...]], rows: list[tuple[int, ...]]):
        if len(chosen) == n:
            return chosen if metabolizer_check(structure, chosen) else None
        basis, pivots = _echelon(chosen)
        for idx in range(start, len(candidates)):
            step()
            v, v_rows = candidates[idx]
            if any(_dot(r, v) for r in rows) or _in_span(basis, pivots, v):
                continue
            found = extend(idx + 1, chosen + [v], rows + list(v_rows))
            if found is not None:
                return found
        return None

    return extend(0, [], [])


def sw_formal_dimension(c1_square: int, euler: int, signature: int) -> int:
    """(c1^2 - 2*chi - 3*sigma) / 4, defined only when the characteristic
    congruence c1^2 = 2*chi + 3*sigma (mod 4) holds."""
    num = c1_square - 2 * euler - 3 * signature
    if num % 4 != 0:
        raise ParameterError(
            f"c1^2={c1_square} violates c1^2 = 2chi+3sigma (mod 4) "
            f"for chi={euler}, sigma={signature}: inconsistent spin-c datum"
        )
    return num // 4
