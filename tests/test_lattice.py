import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lenswall import lattice
from lenswall.errors import ParameterError, ResourceBoundError
from lenswall.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    IntegralLattice,
    IsometricStructure,
    Isometry,
    alpha_invariant,
    double_structure,
    identity_isometry,
    metabolizer_check,
    metabolizer_search,
    reflection_sphere,
    standard_lattice,
    sw_formal_dimension,
)
from lenswall.lattice import _echelon, _in_span, _mat_mul, _mat_vec
from lenswall.wallcross import classify_isometry
from oracles import metabolizer_search_grid

# the composed reflection on (S, E1, E2), rows as frozen below
COMPOSED_ROWS = ((9, 4, -8), (4, 1, -4), (8, 4, -7))


@pytest.fixture
def lat():
    return standard_lattice()


@pytest.fixture
def composed(lat):
    return reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)


def test_pairing(lat):
    s, e1, e2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert lat.pairing(s, s) == 1
    assert lat.pairing(e1, e1) == -1
    assert lat.norm(SIGMA_PLUS) == -1
    assert lat.norm(SIGMA_MINUS) == -1
    rng = random.Random(5)
    for _ in range(10):
        u = tuple(rng.randint(-4, 4) for _ in range(3))
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        assert lat.pairing(u, v) == lat.pairing(v, u)
    with pytest.raises(ParameterError):
        lat.pairing((1, 0), (0, 1, 0))


def test_lattice_validation():
    with pytest.raises(ParameterError):
        IntegralLattice(((1, 2), (3, 4)))  # not symmetric
    with pytest.raises(ParameterError):
        IntegralLattice(((1, 0), (0, -1)), positive_class=(0, 1))  # negative square


def test_signature(lat):
    assert lat.signature() == (1, 2, 0)
    assert IntegralLattice(((0, 1), (1, 0))).signature() == (1, 1, 0)
    assert IntegralLattice(((0, 1), (1, -2))).signature() == (1, 1, 0)
    assert IntegralLattice(((2, -1, 0), (-1, -2, 0), (0, 0, 0))).signature() == (1, 1, 1)


def test_reflection_involution_and_values(lat):
    for sigma in (SIGMA_PLUS, SIGMA_MINUS):
        refl = reflection_sphere(lat, sigma)
        assert refl.apply(sigma) == tuple(-x for x in sigma)
        assert (refl * refl).is_identity()
    assert reflection_sphere(lat, SIGMA_PLUS).apply((1, 0, 0)) == (3, 2, 2)
    assert reflection_sphere(lat, SIGMA_MINUS).apply((1, 0, 0)) == (3, -2, 2)
    with pytest.raises(ParameterError):
        reflection_sphere(lat, (1, 0, 0))  # square +1


def test_composed_reflection_matches_frozen_matrix(composed):
    assert composed.matrix == COMPOSED_ROWS


def test_isometry_validation(lat):
    with pytest.raises(ParameterError):
        Isometry(lat, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    # a degenerate gram does not force det +-1 on its own; the constructor must
    degenerate = IntegralLattice(((0, 0), (0, 0)))
    with pytest.raises(ParameterError):
        Isometry(degenerate, ((2, 0), (0, 1)))
    Isometry(degenerate, ((0, 1), (1, 0)))  # det -1 is fine
    # every constructed isometry preserves the gram exactly by construction;
    # spot-check powers and inverses stay isometries
    f = reflection_sphere(lat, SIGMA_PLUS)
    for d in (-3, -1, 0, 2, 5):
        f.power(d)  # constructor revalidates


def test_integer_entries_are_checked_not_truncated(lat, composed):
    """Vectors, grams and isometry matrices take integral values of any
    numeric type, and reject a value that int() would truncate."""
    action = composed.adjoint()
    with pytest.raises(ParameterError, match="expected an integer, got 7/2"):
        action.apply((Fraction(7, 2), 2, 2))
    assert action.apply((Fraction(6, 2), 2.0, 2)) == action.apply((3, 2, 2))
    with pytest.raises(ParameterError, match="got 1/2"):
        IntegralLattice(((1, 0), (0, Fraction(1, 2))))
    with pytest.raises(ParameterError, match="got 1.5"):
        Isometry(lat, ((1.5, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_compose_inverse_powers(lat, composed):
    assert (composed * composed.inverse()).is_identity()
    rng = random.Random(11)
    for _ in range(6):
        d, e = rng.randint(-4, 4), rng.randint(-4, 4)
        assert composed.power(d) * composed.power(e) == composed.power(d + e)
    # repeated squaring from the lowest set bit equals stepping, and the
    # power carries the inverse that stepping builds
    for d in range(-9, 10):
        step, expected = composed if d > 0 else composed.inverse(), identity_isometry(lat)
        for _ in range(abs(d)):
            expected = expected * step
        power = composed.power(d)
        assert power == expected and power.inverse() == expected.inverse()


def test_composed_has_infinite_order(composed):
    g = composed
    for _ in range(100):
        assert not g.is_identity()
        g = g * composed


def test_alpha_invariant(lat, composed):
    assert alpha_invariant(identity_isometry(lat)) == 1
    assert alpha_invariant(reflection_sphere(lat, SIGMA_PLUS)) == 1
    assert alpha_invariant(reflection_sphere(lat, SIGMA_MINUS)) == 1
    assert alpha_invariant(composed) == 1
    minus = Isometry(lat, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    assert alpha_invariant(minus) == -1
    bare = IntegralLattice(lat.gram)
    with pytest.raises(ParameterError):
        alpha_invariant(identity_isometry(bare))


def test_alpha_invariant_failures_raise_on_every_call(lat):
    """The orientation is kept on the map once decided, but a failure is
    not: a lattice with no positive class, and on diag(1, 1, -1) a swap
    that sends the positive class (1, 0, 0) to its orthogonal (0, 1, 0),
    raise the same ParameterError on every call."""
    bare = identity_isometry(IntegralLattice(lat.gram))
    plane = IntegralLattice(((1, 0, 0), (0, 1, 0), (0, 0, -1)), positive_class=(1, 0, 0))
    swap = Isometry(plane, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    cases = (
        (bare, "^lattice has no designated positive class$"),
        (swap, "^isometry sent the positive class orthogonal to itself$"),
    )
    for f, message in cases:
        for _ in range(3):
            with pytest.raises(ParameterError, match=message):
                alpha_invariant(f)
        assert "_orientation" not in f.__dict__


def test_alpha_multiplicative(lat):
    rp = reflection_sphere(lat, SIGMA_PLUS)
    rm = reflection_sphere(lat, SIGMA_MINUS)
    minus = Isometry(lat, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
    family = [identity_isometry(lat), rp, rm, minus, rp * rm, minus * rp]
    for f in family:
        for g in family:
            assert alpha_invariant(f * g) == alpha_invariant(f) * alpha_invariant(g)


def test_metabolizer_paper_vectors(lat, composed):
    structure = double_structure(lat, composed)
    vectors = [(1, 0, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 1)]
    assert metabolizer_check(structure, vectors)
    # stable under row operations on the spanning set
    v0, v1, v2 = vectors
    mixed = [tuple(3 * a - b for a, b in zip(v0, v2)), v1, tuple(a + b for a, b in zip(v2, v1))]
    assert metabolizer_check(structure, mixed)
    # a single vector cannot span half of rank 6
    assert not metabolizer_check(structure, [vectors[0]])


def test_metabolizer_check_rejects_non_integral_vectors(lat, composed):
    # 1.5 in place of the first paper vector's leading 1 must not pass as it
    structure = double_structure(lat, composed)
    vectors = [(1.5, 0, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 1)]
    with pytest.raises(ParameterError, match="got 1.5"):
        metabolizer_check(structure, vectors)


def test_metabolizer_diagonal(lat):
    structure = double_structure(lat, identity_isometry(lat))
    diag = [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
    assert metabolizer_check(structure, diag)


def test_metabolizer_rejects_non_invariant(lat, composed):
    structure = double_structure(lat, composed)
    # independent, pairwise isotropic, half-rank, but (1,1,0) maps to
    # (13,5,12) which leaves the span
    bad = [(1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 1, 0, 0, 1)]
    assert not metabolizer_check(structure, bad)


def test_metabolizer_search_identity(lat):
    structure = double_structure(lat, identity_isometry(lat))
    found = metabolizer_search(structure, coefficient_bound=1)
    assert found is not None
    assert metabolizer_check(structure, found)


def test_metabolizer_search_paper_case(lat, composed):
    structure = double_structure(lat, composed)
    found = metabolizer_search(structure, coefficient_bound=1)
    assert found is not None
    assert metabolizer_check(structure, found)


def test_metabolizer_search_none_found():
    lat2 = IntegralLattice(((1, 0), (0, 1)))
    minus = Isometry(lat2, ((-1, 0), (0, -1)))
    structure = double_structure(lat2, minus)
    assert metabolizer_search(structure, coefficient_bound=1) is None
    assert metabolizer_search(structure, coefficient_bound=2) is None
    # brute-force oracle at bound 1: every pair of isotropic candidates
    # fails the full criterion
    iso = [
        v
        for v in product(range(-1, 2), repeat=4)
        if any(v) and v[0] ** 2 + v[1] ** 2 == v[2] ** 2 + v[3] ** 2
    ]
    assert iso, "oracle should see candidates"
    for u in iso:
        for v in iso:
            assert not metabolizer_check(structure, [u, v])


def test_sw_formal_dimension():
    # N-summand: c1 = s+e1+e2 has square -1; chi = 5, sigma = -1
    assert sw_formal_dimension(-1, 5, -1) == -2
    # connected sum with a zero-dimensional piece: chi adds minus 2
    dim_x, chi_x, sig_x = 0, 4, 1  # any X with dim 0
    c1sq_x = 2 * chi_x + 3 * sig_x + 4 * dim_x
    total = sw_formal_dimension(c1sq_x + (-1), chi_x + 5 - 2, sig_x + (-1))
    assert total == -1
    assert sw_formal_dimension(11, 4, 1) == 0
    with pytest.raises(ParameterError):
        sw_formal_dimension(0, 5, -1)


# -- the integer elimination kernel against sympy's exact rational algebra --

ENTRIES = st.integers(-3, 3)


def _rows(n_rows, n_cols):
    return st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


def _integer_rows(matrix):
    return tuple(tuple(int(x) for x in row) for row in matrix.tolist())


def _primitive_row(row):
    """A rational sympy row scaled to a primitive integer row, same sign."""
    scale = lcm(*(sympy.fraction(x)[1] for x in row))
    ints = [int(x * scale) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_and_in_span_match_sympy(data):
    n_rows, n_cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    rows = data.draw(_rows(n_rows, n_cols))
    matrix = sympy.Matrix(n_rows, n_cols, [x for row in rows for x in row])
    basis, pivots = _echelon(rows)
    reduced, sympy_pivots = matrix.rref()
    assert len(pivots) == matrix.rank()
    assert pivots == list(sympy_pivots)
    assert basis == [_primitive_row(reduced.row(i)) for i in range(len(pivots))]
    v = data.draw(_rows(1, n_cols))[0]
    assert _in_span(basis, pivots, v) == (sympy.Matrix([*rows, v]).rank() == matrix.rank())
    coefficients = data.draw(_rows(1, n_rows))[0] if rows else []
    combination = [sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(n_cols)]
    assert _in_span(basis, pivots, combination)


@st.composite
def _square_matrices(draw):
    """Square integer matrices of size <= 6: either arbitrary small entries
    or a lower times an upper unitriangular matrix, which is unimodular."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(_rows(n, n))
    lower, upper = (
        [[1 if i == j else (draw(ENTRIES) if (i > j) == low else 0) for j in range(n)]
         for i in range(n)]
        for low in (True, False)
    )
    return _integer_rows(sympy.Matrix(lower) * sympy.Matrix(upper))


@settings(max_examples=200, deadline=None)
@given(_square_matrices())
def test_isometry_determinant_and_inverse_match_sympy(matrix):
    # every matrix preserves the zero form, so only the +-1 determinant
    # check decides whether the constructor accepts it
    n = len(matrix)
    zero = IntegralLattice([[0] * n for _ in range(n)])
    exact = sympy.Matrix(matrix)
    if exact.det() in (1, -1):
        f = Isometry(zero, matrix)
        assert f.inverse().matrix == _integer_rows(exact.inv())
        assert f.inverse().inverse() == f
    else:
        with pytest.raises(ParameterError, match="determinant"):
            Isometry(zero, matrix)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=6))
def test_adjoint_matches_sympy_triple_product(word):
    lat = standard_lattice()
    generators = (reflection_sphere(lat, SIGMA_PLUS), reflection_sphere(lat, SIGMA_MINUS))
    f = identity_isometry(lat)
    for minus, exponent in word:
        f = f * generators[minus].power(exponent)
    g = sympy.Matrix(lat.gram)
    assert f.adjoint().matrix == _integer_rows(g.inv() * sympy.Matrix(f.matrix).T * g)
    # the inverse a product carries is the one the checking constructor derives
    assert f.inverse().matrix == Isometry(lat, f.matrix).inverse().matrix


def test_adjoint_needs_a_nondegenerate_gram():
    degenerate = IntegralLattice(((0, 0), (0, 0)))
    swap = Isometry(degenerate, ((0, 1), (1, 0)))
    assert swap.inverse() == swap
    with pytest.raises(ParameterError, match="matrix is singular"):
        swap.adjoint()


def test_derived_isometries_are_checked_once(monkeypatch):
    """Reflections, products and powers carry their known inverses, and a
    lattice decides nondegeneracy once, so the only elimination is of the
    gram, on the first adjoint."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return _echelon(rows)

    monkeypatch.setattr(lattice, "_echelon", counted)
    lat = standard_lattice()
    f = reflection_sphere(lat, SIGMA_PLUS) * reflection_sphere(lat, SIGMA_MINUS)
    f.power(6)
    for _ in range(10):
        assert f.adjoint() == f.inverse()
    assert calls == [lat.gram]
    # the checking constructor eliminates [M | I] once; a degenerate gram
    # is refused on every call, from one elimination
    degenerate = IntegralLattice(((0, 0), (0, 0)))
    swap = Isometry(degenerate, ((0, 1), (1, 0)))
    for _ in range(3):
        with pytest.raises(ParameterError, match="matrix is singular"):
            swap.adjoint()
    assert calls[1:] == [[(0, 1, 1, 0), (1, 0, 0, 1)], degenerate.gram]


def _sign_changes(coefficients):
    signs = [c > 0 for c in coefficients if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 6: either arbitrary small
    entries or B^T D B with D diagonal, of rank at most the rows of B."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        upper = {(i, j): draw(ENTRIES) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    k = draw(st.integers(1, n))
    b = sympy.Matrix(draw(_rows(k, n)))
    d = sympy.diag(*draw(_rows(1, k))[0])
    return [list(row) for row in _integer_rows(b.T * d * b)]


@settings(max_examples=200, deadline=None)
@given(_symmetric_matrices())
def test_signature_matches_descartes_rule(gram):
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts the positive and negative roots of its charpoly exactly
    coefficients = sympy.Matrix(gram).charpoly().all_coeffs()
    zero = next(k for k, c in enumerate(reversed(coefficients)) if c != 0)
    trimmed = coefficients[: len(coefficients) - zero]
    degree = len(trimmed) - 1
    reflected = [c * (-1) ** (degree - i) for i, c in enumerate(trimmed)]
    expected = (_sign_changes(trimmed), _sign_changes(reflected), zero)
    assert IntegralLattice(gram).signature() == expected


# -- the row-by-column kernels against sympy's matrix products --

WIDE_ENTRIES = st.integers(-50, 50)


def _wide_rows(n_rows, n_cols):
    return st.lists(st.lists(WIDE_ENTRIES, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_match_sympy(data):
    """_mat_mul and _mat_vec equal sympy's products on integer matrices of
    every shape with sides 1..8 (the package multiplies square ones)."""
    rows, inner, cols = (data.draw(st.integers(1, 8)) for _ in range(3))
    a, b = data.draw(_wide_rows(rows, inner)), data.draw(_wide_rows(inner, cols))
    v = data.draw(_wide_rows(1, inner))[0]
    assert _mat_mul(a, b) == _integer_rows(sympy.Matrix(a) * sympy.Matrix(b))
    assert _mat_vec(a, v) == tuple(int(x) for x in sympy.Matrix(a) * sympy.Matrix(v))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairing_matches_sympy(data):
    """pairing(u, v) = u^T G v on symmetric integer grams of rank 1..8,
    drawn with arbitrary entries and as B^T D B (see _symmetric_matrices)."""
    n = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        upper = {(i, j): data.draw(WIDE_ENTRIES) for i in range(n) for j in range(i, n)}
        gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    else:
        b = sympy.Matrix(data.draw(_rows(data.draw(st.integers(1, n)), n)))
        d = sympy.diag(*data.draw(_wide_rows(1, b.rows))[0])
        gram = _integer_rows(b.T * d * b)
    form = IntegralLattice(gram)
    u, v = data.draw(_wide_rows(2, n))
    expected = (sympy.Matrix([u]) * sympy.Matrix(gram) * sympy.Matrix(v))[0, 0]
    assert form.pairing(u, v) == expected == form.pairing(v, u)


# -- metabolizer search: DFS order pinned, budget bounds the grid --

# (map, coefficient bound) -> the metabolizer found on the paper lattice
PINNED_METABOLIZERS = {
    ("f", 1): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -1, 1, -1), (1, -1, 1, -1, 1, 1)],
    ("f", 2): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -2, 2, -1), (1, -2, 1, -2, 2, 2)],
    ("id", 1): [(0, 0, 0, 1, -1, 0), (0, 0, 1, -1, 1, -1), (1, -1, -1, -1, 1, 1)],
    ("id", 2): [(0, 0, 0, 1, -1, 0), (0, 0, 1, -2, 2, -1), (1, -1, -2, -2, 2, 2)],
    ("f^2", 1): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -1, 1, -1), (1, -1, 1, -1, 1, 1)],
    ("f^2", 2): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -2, 2, -1), (1, -2, 1, -2, 2, 2)],
    ("f^-1", 1): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -1, 1, -1), (1, -1, 1, -1, 1, 1)],
    ("f^-1", 2): [(0, 0, 0, 1, -1, 0), (0, 1, 0, -2, 2, -1), (1, -2, 1, -2, 2, 2)],
}


@pytest.mark.parametrize("name, bound", sorted(PINNED_METABOLIZERS))
def test_metabolizer_search_pinned(lat, composed, name, bound):
    maps = {
        "f": composed,
        "id": identity_isometry(lat),
        "f^2": composed.power(2),
        "f^-1": composed.inverse(),
    }
    structure = double_structure(lat, maps[name])
    assert metabolizer_search(structure, bound) == PINNED_METABOLIZERS[name, bound]


def test_metabolizer_search_budget_bounds_the_grid(lat, composed):
    structure = double_structure(lat, composed)
    with pytest.raises(
        ResourceBoundError,
        match="table of 1331 half-vectors exceeds its budget of 10$",
    ):
        metabolizer_search(structure, 5, budget=10)


def test_metabolizer_search_budget_counts_pairs_and_steps(lat):
    # r_- at bound 2: a 125-entry table, then 46728 isotropic pairs and
    # extension steps before the search answers None
    structure = double_structure(lat, reflection_sphere(lat, SIGMA_MINUS))
    assert metabolizer_search(structure, 2, budget=46_728) is None
    with pytest.raises(ResourceBoundError, match="exceeded its budget of 46727 steps$"):
        metabolizer_search(structure, 2, budget=46_727)


def test_metabolizer_search_budget_sees_the_inverse_pruning_row(lat):
    # r_+ after the quarter turn is no involution, so the <v, F^-1 u> = 0
    # row prunes other extensions than the <v, F u> = 0 row: at bound 1 the
    # search answers None after 1415 pairs and steps (1745 when the row is
    # built from F instead of F^-1)
    f = reflection_sphere(lat, SIGMA_PLUS) * Isometry(lat, ROTATION)
    structure = double_structure(lat, f)
    assert metabolizer_search(structure, 1, budget=1415) is None
    with pytest.raises(ResourceBoundError, match="exceeded its budget of 1414 steps$"):
        metabolizer_search(structure, 1, budget=1414)


def test_metabolizer_search_checks_only_the_family_it_returns(lat, composed, monkeypatch):
    # the pruning leaves one family for metabolizer_check (the grid search
    # made 1154 checks for f at bound 2) and none when there is no answer
    calls = []
    check = lattice.metabolizer_check
    monkeypatch.setattr(lattice, "metabolizer_check", lambda s, v: calls.append(v) or check(s, v))
    found = metabolizer_search(double_structure(lat, composed), 2)
    assert calls == [found]
    calls.clear()
    assert metabolizer_search(double_structure(lat, reflection_sphere(lat, SIGMA_MINUS)), 2) is None
    assert calls == []


def test_metabolizer_search_pinned_beyond_the_grid(lat, composed):
    # r_- has no metabolizer at bound 1 (the grid reference takes 105719
    # steps to say so); f at bound 6 lies beyond the grid's 2M budget
    reflection = double_structure(lat, reflection_sphere(lat, SIGMA_MINUS))
    assert metabolizer_search(reflection, 1) is None
    assert metabolizer_search(double_structure(lat, composed), 6) == [
        (0, 0, 0, 1, -1, 0), (0, 1, 0, -6, 6, -1), (1, -6, 1, -6, 6, 6),
    ]


ROTATION = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
WORDS = st.lists(st.sampled_from(("r_+", "r_-", "rotation")), max_size=3)


def _word_map(word):
    """The product of r_+, r_- and the quarter turn named in word."""
    lat = standard_lattice()
    generators = {
        "r_+": reflection_sphere(lat, SIGMA_PLUS),
        "r_-": reflection_sphere(lat, SIGMA_MINUS),
        "rotation": Isometry(lat, ROTATION),
    }
    f = identity_isometry(lat)
    for name in word:
        f = f * generators[name]
    return f


def _rank_two_isometries():
    """Every signed permutation that is an isometry of one of four rank-2 forms."""
    maps = []
    for gram in (((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((2, 1), (1, -1))):
        lat2 = IntegralLattice(gram)
        for perm, signs in product(permutations(range(2)), product((1, -1), repeat=2)):
            matrix = tuple(tuple(signs[i] * (perm[i] == j) for j in range(2)) for i in range(2))
            try:
                maps.append(Isometry(lat2, matrix))
            except ParameterError:
                continue
    return maps


@settings(max_examples=60, deadline=None)
@given(st.one_of(WORDS.map(_word_map), st.sampled_from(_rank_two_isometries())), st.data())
def test_structure_pairing_and_apply_match_blocks(f, data):
    # the doubled gram q + -q and map f + id, assembled block by block
    n, q = f.lattice.rank, f.lattice.gram
    gram = [[0] * (2 * n) for _ in range(2 * n)]
    matrix = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            gram[i][j], gram[n + i][n + j] = q[i][j], -q[i][j]
            matrix[i][j] = f.matrix[i][j]
    vector = st.tuples(*[st.integers(-9, 9)] * (2 * n))
    u, v = data.draw(vector), data.draw(vector)
    structure = double_structure(f.lattice, f)
    assert structure.rank == 2 * n
    assert structure.pairing(u, v) == sum(
        u[i] * gram[i][j] * v[j] for i in range(2 * n) for j in range(2 * n)
    )
    assert structure.apply(u) == tuple(
        sum(matrix[i][j] * u[j] for j in range(2 * n)) for i in range(2 * n)
    )


@settings(max_examples=20, deadline=None)
@given(WORDS, st.integers(1, 2))
def test_metabolizer_search_matches_grid_reference(word, bound):
    # the pruned reference answers every draw within its default budget,
    # the None draws included; a ResourceBoundError fails the draw
    lat = standard_lattice()
    structure = double_structure(lat, _word_map(word))
    expected = metabolizer_search_grid(structure, bound, prune=True)
    assert metabolizer_search(structure, bound) == expected


def test_metabolizer_search_matches_pruned_grid_on_every_short_word(lat):
    """All 40 words of length <= 3 in r_+, r_- and the quarter turn, at
    bound 1, against the pruned grid reference; 35 of them have no
    metabolizer there."""
    outcomes = []
    for length in range(4):
        for word in product(("r_+", "r_-", "rotation"), repeat=length):
            structure = double_structure(lat, _word_map(word))
            expected = metabolizer_search_grid(structure, 1, prune=True)
            assert metabolizer_search(structure, 1) == expected, word
            outcomes.append(expected is None)
    assert (len(outcomes), sum(outcomes)) == (40, 35)


def test_metabolizer_search_matches_grid_reference_without_a_metabolizer(lat):
    # the unpruned grid reference, with a budget of 10^7, on a map with no
    # metabolizer at bound 1 (the property above uses the pruned one)
    f = reflection_sphere(lat, SIGMA_PLUS) * Isometry(lat, ROTATION)
    structure = double_structure(lat, f)
    assert metabolizer_search_grid(structure, 1, budget=10**7) is None
    assert metabolizer_search(structure, 1) is None


def test_metabolizer_search_matches_grid_reference_on_rank_two():
    """Every signed permutation that is an isometry of four rank-2 forms,
    at bounds 1-3: the reference finishes within its default budget here,
    so the cases without a metabolizer are compared too."""
    outcomes = []
    for f in _rank_two_isometries():
        structure = double_structure(f.lattice, f)
        for bound in (1, 2, 3):
            expected = metabolizer_search_grid(structure, bound)
            assert metabolizer_search(structure, bound) == expected, (f.lattice, f, bound)
            outcomes.append(expected is None)
    assert (len(outcomes), sum(outcomes)) == (54, 36)


def test_isometric_structure_requires_block_form(lat):
    # the structure stores (L, f), so a gram or map outside the block form
    # cannot be built; what remains to refuse is a map on another lattice
    plane = IntegralLattice(((1, 0), (0, 1)))
    with pytest.raises(ParameterError, match="does not act on the given lattice"):
        IsometricStructure(lat, identity_isometry(plane))


def test_structure_and_classification_share_the_acts_on_check(lat, composed):
    """A map of the standard lattice, offered on the same gram without its
    positive class, is refused by both entries with one message."""
    bare = IntegralLattice(lat.gram)
    messages = []
    for call in (double_structure, classify_isometry):
        with pytest.raises(ParameterError) as exc:
            call(bare, composed)
        messages.append(str(exc.value))
    assert messages == ["isometry does not act on the given lattice"] * 2
    assert classify_isometry(lat, composed) == "parabolic"
    assert double_structure(lat, composed).lattice == lat
