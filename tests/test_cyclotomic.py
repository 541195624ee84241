import cmath
import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenswall.cyclotomic import (
    Cyclotomic,
    _normalize,
    cyclotomic_polynomial,
    root_of_unity,
    root_sum,
)
from lenswall import cyclotomic, poly
from lenswall.errors import NotRationalError, OrderMismatchError, ParameterError
from lenswall.poly import _cyclotomic_factors
from oracles import (
    cyclotomic_polynomial_by_division,
    ramanujan_sums,
    schoolbook_product,
    trace_numerator_by_ramanujan,
)


def embed(element):
    """The complex value of a power-basis element, z -> e^(2 pi i / n)."""
    n = element.order
    return sum(complex(c) * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(element.coeffs))


def test_cyclotomic_polynomial_matches_the_division_reference():
    """Phi_n, built from Phi_(n/p) at the largest prime p of n, equals x^n - 1
    divided by the Phi_d of its proper divisors for every n <= 600, at
    n = 2018 = 2 * 1009, the order of the p = 1009 field, and at the prime-rich
    1155 = 3 * 5 * 7 * 11, 2310 = 2 * 1155 and 4620 = 4 * 1155, whose degree is
    also checked against Euler's phi."""
    for n in [*range(1, 601), 2018, 1155, 2310, 4620]:
        assert cyclotomic_polynomial(n) == cyclotomic_polynomial_by_division(n), n
    for n in (1155, 2310, 4620):
        assert len(cyclotomic_polynomial(n)) - 1 == sympy.totient(n), n


def test_phi_at_twice_an_odd_order_is_phi_at_minus_x():
    """Phi_2m(x) = Phi_m(-x) for every odd m with 3 <= m <= 600 and at
    m = 4001: the primitive 2m-th roots of unity are minus the primitive
    m-th ones."""
    for m in [*range(3, 601, 2), 4001]:
        minus_x = tuple(-c if i % 2 else c for i, c in enumerate(cyclotomic_polynomial(m)))
        assert cyclotomic_polynomial(2 * m) == minus_x, m


def test_phi_spreads_the_radicals_phi():
    """Phi_n(x) = Phi_rad(n)(x^(n/rad(n))) for every n <= 600: the
    radical's coefficients spread n/rad(n) apart."""
    for n in range(1, 601):
        rad = prod(sympy.primefactors(n))
        base, step = cyclotomic_polynomial(rad), n // rad
        spread = [0] * ((len(base) - 1) * step + 1)
        spread[::step] = base
        assert cyclotomic_polynomial(n) == tuple(spread), n


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)          # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)           # x + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # frozen from the division oracle (x^6-1)/(Phi_1 Phi_2 Phi_3) = x^2 - x + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_product_of_divisors_is_xn_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = schoolbook_product(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected
    assert len(cyclotomic_polynomial(n)) - 1 == sympy.totient(n)


def test_the_field_reads_the_one_cached_phi():
    assert cyclotomic.cyclotomic_polynomial is poly.cyclotomic_polynomial


def test_each_phi_alone_is_one_cyclotomic_factor():
    """Each Phi_k, k <= 120, is found before the stop at k > 2d^2; k = 2
    meets that bound exactly (phi(2) = 1), so k = 2d^2 itself is tried."""
    for k in range(1, 121):
        assert _cyclotomic_factors(cyclotomic_polynomial(k)) == ([k], [1]), k


def test_products_of_two_phi_give_both_cyclotomic_factors():
    for k in range(1, 31):
        for j in range(1, k + 1):
            product = schoolbook_product(list(cyclotomic_polynomial(j)), list(cyclotomic_polynomial(k)))
            assert _cyclotomic_factors(product) == (sorted([j, k]), [1]), (j, k)


def test_root_of_unity_basics():
    # zeta * zeta^(n-1) = 1
    assert root_of_unity(4, 1) * root_of_unity(4, 3) == Cyclotomic(4, (1,))
    # zeta_2 = -1
    assert root_of_unity(2, 1) == Cyclotomic(2, (-1,))
    # zeta_6^2 reduces to zeta_6 - 1 on the basis {1, z}
    z2 = root_of_unity(6, 2)
    assert z2.coeffs == (Fraction(-1), Fraction(1))
    assert root_of_unity(5, 0) == Cyclotomic(5, (1,))
    assert root_of_unity(7, 12) == root_of_unity(7, 5)


def test_field_ops_and_reduction():
    z = root_of_unity(6)
    assert z * z == z - 1
    a = Cyclotomic(6, (Fraction(2, 3), Fraction(-1, 2)))
    assert (a + (-a)).is_zero()
    assert a - a == Cyclotomic(6)
    assert a * 1 == a
    assert 2 * a == a + a


def test_order_mismatch_and_explicit_coercion():
    z3 = root_of_unity(3)
    z6 = root_of_unity(6)
    # zeta_3 = zeta_6^2, but elements of different orders are never combined
    for mixed in (
        lambda: z3 + z6,
        lambda: z3 - z6,
        lambda: z3 * z6,
        lambda: root_sum(6, [(z6, 1), (z3, 2)]),
        lambda: root_sum(3, [(z6, 0)]),
    ):
        with pytest.raises(OrderMismatchError, match=r"^orders differ \((3 vs 6|6 vs 3)\)$"):
            mixed()


def test_inverse():
    assert Cyclotomic(5, (1,)).inverse() == Cyclotomic(5, (1,))
    z = root_of_unity(10)
    assert z.inverse() == root_of_unity(10, 9)
    u = root_of_unity(6) - 1
    assert u * u.inverse() == Cyclotomic(6, (1,))
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(6).inverse()
    # multiplying by an inverse round-trips
    a = Cyclotomic(12, (1, 2, 0, -1))
    b = Cyclotomic(12, (0, 1, 1, 0))
    assert a * b.inverse() * b == a


def test_packed_products_equal_the_schoolbook_ones():
    """Cyclotomic.__mul__ (schoolbook below _PACKED_DEGREE terms, one packed
    integer product from there on) against the reference's schoolbook
    product, reduced mod Phi_n: at 40 random orders <= 400 with random
    coefficients and denominators; and the coefficient product itself at
    the threshold - 1, the threshold and the threshold + 1 terms, with
    coefficients of up to 10^30 in size, both signs, zeros, runs of zeros,
    all-zero and one-sided vectors, and the all-maximal vectors of 2^k - 1
    with 2k + bit_length(size) a multiple of 8, whose middle coefficient
    fills its digit but for the sign bit, where the digit width and the
    offset of the packing are tightest."""
    rng = random.Random(37)
    for n in [rng.randint(1, 400) for _ in range(40)]:
        deg = len(cyclotomic_polynomial(n)) - 1
        big = rng.choice((10, 10**6, 10**30))
        a, b = (
            Cyclotomic(n, [Fraction(rng.randint(-big, big), rng.randint(1, 9)) for _ in range(deg)])
            for _ in range(2)
        )
        expected = _normalize(n, schoolbook_product(a._num, b._num), a._den * b._den)
        product = a * b
        assert (product._num, product._den) == expected, n
    threshold = cyclotomic._PACKED_DEGREE
    edge = 10**30
    for size in (threshold - 1, threshold, threshold + 1):
        top = 2 ** next(k for k in range(97, 105) if (2 * k + size.bit_length()) % 8 == 0) - 1
        for a, b in (
            ([top] * size, [top] * size),
            ([-top] * size, [top] * size),
            ([rng.randint(-edge, edge) for _ in range(size)], [rng.randint(-edge, edge) for _ in range(size)]),
            ([edge] * size, [-edge] * size),
            ([-edge] * size, [-edge] * size),
            ([0] * size, [rng.randint(-edge, edge) for _ in range(size)]),
            ([0] * size, [0] * size),
            ([rng.choice((0, 0, 1, -1, edge, -edge)) for _ in range(size)], [0] * (size - 1) + [1]),
            ([1] + [0] * (size - 1), [rng.choice((0, -edge)) for _ in range(size)]),
        ):
            assert cyclotomic._product(a, b) == schoolbook_product(a, b), size
            assert cyclotomic._packed_product(a, b) == schoolbook_product(a, b), size


def test_as_rational():
    assert Cyclotomic(7).as_rational() == 0
    with pytest.raises(NotRationalError) as exc:
        root_of_unity(6).as_rational()
    assert exc.value.element == root_of_unity(6)
    # frozen: sum of all nontrivial 5th roots of unity is -1
    total = Cyclotomic(5)
    for k in range(1, 5):
        total = total + root_of_unity(5, k)
    assert total.as_rational() == Fraction(-1)


def test_galois_sum_is_rational():
    # a Galois-stable sum of field expressions must land in Q
    for n, q, s in [(6, 1, 3), (10, 3, 4), (12, 5, 7)]:
        total = Cyclotomic(n)
        for k in range(1, n):
            lam, lam_q, lam_s = (root_of_unity(n, k * e) for e in (1, q, s))
            total = total + (lam_s - 1) * lam_q * ((lam_q - 1) * (lam - 1)).inverse()
        total.as_rational()
    # frozen: sum over nontrivial n-th roots of 1/(lam - 1) is -(n-1)/2
    n = 5
    total = Cyclotomic(n)
    for k in range(1, n):
        total = total + (root_of_unity(n, k) - 1).inverse()
    assert total.as_rational() == Fraction(-(n - 1), 2)


def test_ramanujan_sums_are_the_galois_sums():
    """The reference ramanujan_sums(n)[j] is the sum of zeta_n^(u*j) over
    the units u mod n, summed in the field by root_sum and collapsed by
    as_rational (which raises if the Galois-stable sum left Q), for every
    n <= 120 and every j."""
    for n in range(1, 121):
        one, units = root_of_unity(n, 0), _units(n, 1, n)
        sums = ramanujan_sums(n)
        assert len(sums) == n
        for j in range(n):
            assert sums[j] == root_sum(n, ((one, u * j) for u in units)).as_rational(), (n, j)


def test_trace_is_the_sum_of_conjugates():
    """Entry k mod n of the integer kernel x._trace_numerators() over the
    denominator is the sum of the Galois conjugates of zeta_n^k * x,
    collapsed by as_rational, for sampled elements at every n <= 40 and
    every k in -1 .. n (taken mod n)."""
    rng = random.Random(26)
    for n in range(1, 41):
        deg = len(cyclotomic_polynomial(n)) - 1
        for _ in range(3):
            x = Cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)])
            kernel = x._trace_numerators()
            assert len(kernel) == n and all(type(v) is int for v in kernel), (n, x)
            for k in range(-1, n + 1):
                total = Cyclotomic(n)
                for u in _units(n, 1, n):
                    total = total + x.times_root(k).conjugate(u)
                assert Fraction(kernel[k % n], x._den) == total.as_rational(), (n, x, k)
    assert Cyclotomic(7, (Fraction(3, 2),))._trace_numerators()[0] == 18


def _sample_elements(rng, n):
    """One element of Q(zeta_n) with mixed denominators, two whose numerators
    share a factor (content 6 over 1, content 4 over 3) and zero."""
    deg = len(cyclotomic_polynomial(n)) - 1
    return (
        Cyclotomic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]),
        Cyclotomic(n, [6 * rng.randint(-9, 9) for _ in range(deg - 1)] + [6]),
        Cyclotomic(n, [Fraction(4 * rng.randint(-9, 9), 3) for _ in range(deg - 1)] + [Fraction(4, 3)]),
        Cyclotomic(n),
    )


def _galois_traces(x):
    """Tr(zeta_n^t * x) for t = 0 .. n-1 as sums of Galois conjugates: the
    numerators of sigma_u(zeta_n^t * x) = zeta_n^(ut) * sigma_u(x) over the
    units u (sigma_u keeps the denominator of x), each rotated by ut through
    the exponents 0 .. n-1, added column by column, reduced into the power
    basis and collapsed by as_rational, which raises if the sum left Q."""
    n = x.order
    units = _units(n, 1, n)
    rows = [list(y._num) + [0] * (n - len(y._num)) for y in map(x.conjugate, units)]
    for t in range(n):
        shifts = (u * t % n for u in units)
        rotated = [row[-k:] + row[:-k] if k else row for row, k in zip(rows, shifts)]
        total = list(map(sum, zip(*rotated)))
        yield Cyclotomic._make(n, *_normalize(n, total, x._den)).as_rational()


def test_trace_numerators_match_ramanujan_and_conjugates():
    """Every entry t of x._trace_numerators(), which sums the numerators over
    residue classes weighted by the Moebius function, equals the per-k
    reference sum_i num_i * c_n(i + t) over the recursive Ramanujan sums,
    and over the denominator equals the sum of the Galois conjugates of
    zeta_n^t * x: every n <= 120 (8, 9, 12, 25, 27, 49 and 50 among the
    non-squarefree ones), every t and the four sampled elements."""
    rng = random.Random(28)
    for n in range(1, 121):
        for x in _sample_elements(rng, n):
            kernel = x._trace_numerators()
            assert len(kernel) == n, (n, x)
            for t, galois in enumerate(_galois_traces(x)):
                assert kernel[t] == trace_numerator_by_ramanujan(x, t), (n, x, t)
                assert Fraction(kernel[t], x._den) == galois, (n, x, t)


def test_times_root_is_the_one_term_root_sum():
    """x.times_root(k), a rotation folded once that keeps the denominator,
    equals the one-term root_sum (which rescales, wraps, folds and divides
    out the content) for sampled elements at every n <= 60 and every k in
    -n .. 2n: one with mixed denominators, two whose numerators share a
    factor (content 6 over 1, content 4 over 3) and zero."""
    rng = random.Random(27)
    for n in range(1, 61):
        for x in _sample_elements(rng, n):
            for k in range(-n, 2 * n + 1):
                assert x.times_root(k) == root_sum(n, ((x, k),)), (n, x, k)


def test_approx_complex_is_ring_hom():
    rng = random.Random(7)
    for n in (7, 36, 100, 200):
        deg = sympy.totient(n)
        for k in (1, n - 1, n + 3):
            assert abs(embed(root_of_unity(n, k)) - cmath.exp(2j * cmath.pi * k / n)) < 1e-9
        for _ in range(3):
            a = Cyclotomic(n, [rng.randint(-3, 3) for _ in range(deg)])
            b = Cyclotomic(n, [rng.randint(-3, 3) for _ in range(deg)])
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-9
            assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9


def test_field_axioms_random_sample():
    rng = random.Random(99)
    n = 12
    deg = sympy.totient(n)

    def rand():
        return Cyclotomic(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])

    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == Cyclotomic(n, (1,))


def test_powers():
    """root_of_unity takes its exponent mod n."""
    assert root_of_unity(7, 7) == Cyclotomic(7, (1,))
    assert root_of_unity(7, -1) == root_of_unity(7, 6)
    assert root_of_unity(7, 0) == Cyclotomic(7, (1,))


def test_equality_is_structural():
    # same rational in different fields compares unequal as elements
    assert Cyclotomic(3, (1,)) != Cyclotomic(6, (1,))
    # but both compare equal to the scalar
    assert Cyclotomic(3, (1,)) == 1 and Cyclotomic(6, (1,)) == 1
    assert hash(Cyclotomic(5, (1,))) == hash(Cyclotomic(5, (1,)))
    # equal objects hash equal, scalars included
    halves = {Fraction(-1, 2), Cyclotomic(7, (Fraction(-2, 4),))}
    assert len({Cyclotomic(3, (1,)), 1, *halves}) == 2


# -- sympy as the oracle for the integer representation --------------------

X = sympy.Symbol("x")
_RATIONALS = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


def _sympy_poly(coeffs):
    """The polynomial sum coeffs[i] * x^i over QQ."""
    high_first = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
    return sympy.Poly(high_first[::-1] or [0], X, domain="QQ")


def _phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")


def _power_basis(n, poly):
    """Constant-first Fractions of poly mod Phi_n, padded to phi(n) entries."""
    rem = poly.rem(_phi(n))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (int(sympy.totient(n)) - len(coeffs)))


@st.composite
def _field_elements(draw):
    """An order n <= 30 and two coefficient lists of any length up to
    phi(n) + n, so the constructor's reduction is drawn too."""
    n = draw(st.integers(min_value=1, max_value=30))
    size = st.integers(min_value=0, max_value=int(sympy.totient(n)) + n)
    a = draw(st.lists(_RATIONALS, max_size=draw(size)))
    b = draw(st.lists(_RATIONALS, max_size=draw(size)))
    return n, a, b


@settings(max_examples=150, deadline=None)
@given(_field_elements(), st.data())
def test_arithmetic_matches_sympy(case, data):
    n, a_in, b_in = case
    pa, pb = _sympy_poly(a_in), _sympy_poly(b_in)
    a, b = Cyclotomic(n, a_in), Cyclotomic(n, b_in)
    assert a.coeffs == _power_basis(n, pa)
    assert b.coeffs == _power_basis(n, pb)
    product = a * b
    assert product.coeffs == _power_basis(n, pa * pb)
    assert (a + b).coeffs == _power_basis(n, pa + pb)
    if not a.is_zero():
        expected = sympy.invert(pa.rem(_phi(n)), _phi(n))
        assert a.inverse().coeffs == _power_basis(n, expected)
    k = data.draw(st.integers(min_value=0, max_value=2 * n))
    r = Fraction(data.draw(_RATIONALS))
    # a scalar on the left of a difference
    assert (3 - a).coeffs == _power_basis(n, _sympy_poly([3]) - pa)
    assert (r - a).coeffs == _power_basis(n, _sympy_poly([r]) - pa)
    # two constructions of the same value are equal and hash equal
    for left, right in (
        (a + r, a + Cyclotomic(n, (r,))),
        (a - 3, a - Cyclotomic(n, (3,))),
        (3 + a, Cyclotomic(n, (3,)) + a),
        (3 - a, Cyclotomic(n, (3,)) - a),
        (r - a, Cyclotomic(n, (r,)) - a),
        (product, Cyclotomic(n, _power_basis(n, pa * pb))),
        ((a + b) - b, a),
        ((a * 6) * Fraction(1, 4), a * Fraction(3, 2)),
        (a.times_root(k), a * root_of_unity(n, k)),
    ):
        assert left == right and hash(left) == hash(right)


def _units(n, lo, hi):
    """The m in lo..hi prime to n (every m when n = 1)."""
    return [m for m in range(lo, hi + 1) if gcd(m, n) == 1]


@settings(max_examples=150, deadline=None)
@given(_field_elements(), st.data())
def test_conjugate_matches_sympy(case, data):
    """sigma_m (zeta -> zeta^m) against a(x^(m mod n)) mod Phi_n, for m prime
    to n drawn negative, below n and above it: a field automorphism that
    sends zeta^k to zeta^(mk), composes as sigma_m sigma_k = sigma_mk and
    fixes the rationals; an m not prime to n is refused."""
    n, a_in, b_in = case
    pa = _sympy_poly(a_in)
    a, b = Cyclotomic(n, a_in), Cyclotomic(n, b_in)
    m = data.draw(st.sampled_from(_units(n, -2 * n, 2 * n)))
    k = data.draw(st.sampled_from(_units(n, 0, n)))
    image = a.conjugate(m)
    expected = Cyclotomic(n, _power_basis(n, pa.compose(sympy.Poly(X ** (m % n), X))))
    assert image == expected and hash(image) == hash(expected)
    assert (a * b).conjugate(m) == image * b.conjugate(m)
    assert (a + b).conjugate(m) == image + b.conjugate(m)
    assert root_of_unity(n, k).conjugate(m) == root_of_unity(n, m * k)
    assert a.conjugate(k).conjugate(m) == a.conjugate(m * k)
    assert a.conjugate(1) == a
    r = Fraction(data.draw(_RATIONALS))
    assert Cyclotomic(n, (r,)).conjugate(m) == r
    if n > 1:
        bad = data.draw(st.sampled_from([m for m in range(-2 * n, 2 * n + 1) if gcd(m, n) != 1]))
        with pytest.raises(ParameterError, match="not prime to the order"):
            a.conjugate(bad)


@st.composite
def _root_terms(draw):
    """An order n <= 30 and up to six (coefficients, exponent) terms: each
    element has its own denominators, and exponents are drawn negative,
    zero, below n and at or above n."""
    n = draw(st.integers(min_value=1, max_value=30))
    coeffs = st.lists(_RATIONALS, max_size=int(sympy.totient(n)))
    exponents = st.one_of(
        st.integers(min_value=-3 * n, max_value=-1),
        st.just(0),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=n, max_value=3 * n),
    )
    return n, draw(st.lists(st.tuples(coeffs, exponents), max_size=6))


@settings(max_examples=150, deadline=None)
@given(_root_terms())
@example((6, []))
@example((12, [([Fraction(1, 2), 3], -5), ([Fraction(2, 3)], 0), ([1, 0, Fraction(-1, 4)], 29)]))
def test_root_sum_matches_sympy(case):
    n, raw = case
    terms = [(Cyclotomic(n, coeffs), e) for coeffs, e in raw]
    total = root_sum(n, terms)
    # x^n = 1 mod Phi_n, so x^e is x^(e mod n) there
    expected = sum((_sympy_poly(c) * sympy.Poly(X ** (e % n), X) for c, e in raw), _sympy_poly([]))
    assert total.coeffs == _power_basis(n, expected)
    by_root, by_product = Cyclotomic(n), Cyclotomic(n)
    for b, e in terms:
        by_root = by_root + b.times_root(e)
        by_product = by_product + b * root_of_unity(n, e)
    for other in (by_root, by_product):
        assert total == other and hash(total) == hash(other)
    if not raw:
        assert total == Cyclotomic(n) and total.is_zero()
