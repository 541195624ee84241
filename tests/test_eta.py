import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenswall.cyclotomic import Cyclotomic, root_of_unity
from lenswall.errors import ParameterError, ResourceBoundError
from lenswall.eta import (
    component_classes,
    distinguish_metrics,
    eta_flipspun,
    eta_table,
    eta_variant,
    fourier_closed_form,
    fourier_coefficient,
    fourier_unit_ratio,
    matching_sweep,
    rho_lens,
    rho_table,
)
from lenswall import eta
from lenswall.errors import NotRationalError
from lenswall.eta import (
    _canonical,
    _eta_values,
    _inverse,
    _inverse_product,
    _pair_product,
    _trace_table,
    _unit_ratio,
)
import oracles
from oracles import (
    eta_float,
    eta_half_roots_float,
    eta_matches,
    eta_odd_p_float,
    eta_variant_per_s,
    fourier_closed_form_product,
    fourier_unit_ratio_product,
    matching_classes,
    partition,
    rho_float,
    rho_table_cyclotomic,
)


def test_params_validation():
    # q is reduced mod n (mod 2p for X(p)) where it enters
    assert rho_table(6, 7) == rho_table(6, 1) != rho_table(6, 5)
    with pytest.raises(ParameterError):
        rho_table(6, 2)
    with pytest.raises(ParameterError):
        eta_table(5, 4)  # even q
    with pytest.raises(ParameterError):
        eta_table(5, 5)  # shares a factor with 2p
    assert eta_table(5, 13) == eta_table(5, 3) != eta_table(5, 7)
    assert distinguish_metrics(5, 13, 3).q == 3


def test_rho_zero_character():
    for n, q in [(2, 1), (6, 1), (10, 3), (9, 2)]:
        assert rho_lens(n, q, 0) == 0


def test_rho_frozen_values():
    # single-term evaluation at lam = -1: ((-2)(-1))/((-2)(-2)) / 2 = 1/4
    assert rho_lens(2, 1, 1) == Fraction(1, 4)


def test_rho_matches_float_oracle():
    for n, q in [(6, 1), (10, 3), (14, 5), (9, 4)]:
        for s in range(n):
            assert abs(rho_lens(n, q, s) - rho_float(n, q, s)) < 1e-9


def test_rho_table_matches_cyclotomic_sum():
    """The integer recurrence equals the exact root-of-unity sum in
    Q(zeta_n) for every n in 1..40 and every q coprime to n (490 pairs)."""
    pairs = [(n, q) for n in range(1, 41) for q in range(n) if gcd(q, n) == 1]
    assert len(pairs) == 490
    for n, q in pairs:
        assert rho_table(n, q) == rho_table_cyclotomic(n, q), (n, q)


@st.composite
def _lens_characters(draw):
    n = draw(st.integers(min_value=1, max_value=100))
    q = draw(st.sampled_from([q for q in range(n) if gcd(q, n) == 1]))
    s = draw(st.integers())
    return n, q, s


@given(_lens_characters())
def test_rho_lens_matches_float_oracle_property(case):
    """Any coprime (n, q) with n <= 100 (the default budget) and any s."""
    n, q, s = case
    assert abs(rho_lens(n, q, s) - rho_float(n, q, s % n)) < 1e-9


def test_eta_frozen_values():
    assert eta_flipspun(3, 1, 1) == Fraction(-1, 4)
    assert eta_flipspun(3, 1, 0) == Fraction(-3, 4)
    assert eta_flipspun(3, 1, 2) == Fraction(1, 4)


def test_eta_antisymmetry():
    for p, q in [(3, 1), (5, 3), (7, 5), (6, 5)]:
        for s in range(2 * p):
            assert eta_flipspun(p, q, s) == -eta_flipspun(p, q, s + p)


def test_eta_tables_are_antiperiodic():
    """E(s + p) = -E(s) on the public Fractions for every q at odd p <= 61:
    _canonical narrows columns 1..p-1 only, and the class keys keep K[:p],
    on the strength of this identity."""
    for p in range(1, 62, 2):
        for q in range(1, 2 * p, 2):
            if gcd(q, p) == 1:
                table = eta_table(p, q, max_p=61)
                assert table[p:] == tuple(-v for v in table[:p]), (p, q)


def test_eta_variants_agree():
    for p, q in [(3, 1), (5, 3), (7, 3), (9, 7)]:
        for s in range(2 * p):
            pinc = eta_variant(p, q, s, "pinc-difference")
            assert eta_variant(p, q, s, "half-roots") == pinc
            assert eta_variant(p, q, s, "odd-p") == pinc


def test_eta_variants_match_float_oracles():
    for p, q, s in [(3, 1, 1), (5, 3, 2), (7, 3, 4), (9, 5, 7)]:
        assert abs(eta_flipspun(p, q, s) - eta_float(p, q, s)) < 1e-9
        assert abs(eta_variant(p, q, s, "half-roots") - eta_half_roots_float(p, q, s)) < 1e-9
        assert abs(eta_variant(p, q, s, "odd-p") - eta_odd_p_float(p, q, s)) < 1e-9


def test_eta_variant_rejects_even_p_odd_formula():
    with pytest.raises(ParameterError):
        eta_variant(4, 1, 1, "odd-p")
    # half-roots works for even p
    assert eta_variant(4, 1, 1, "half-roots") == eta_flipspun(4, 1, 1)
    with pytest.raises(ParameterError):
        eta_variant(3, 1, 1, "no-such-formula")


def test_eta_variant_checks_formula_and_parity_before_the_budget():
    """Above the size budget, an unknown formula and odd-p at even p are
    still parameter errors, as at any p, not resource errors; a valid
    formula there hits the budget."""
    with pytest.raises(ParameterError, match="^the odd-p formula requires p odd$"):
        eta_variant(52, 1, 0, "odd-p")
    with pytest.raises(ParameterError, match="^unknown eta formula 'bogus'"):
        eta_variant(52, 1, 0, "bogus")
    for formula in ("pinc-difference", "half-roots"):
        with pytest.raises(ResourceBoundError):
            eta_variant(52, 1, 0, formula)
    with pytest.raises(ResourceBoundError):
        eta_variant(53, 1, 0, "odd-p")


def test_fourier_frozen_values():
    # p=3, q=1, j=1: the transform collapses to omega/(omega+1)^2 = 1
    assert fourier_coefficient(3, 1, 1) == 1
    # p=5, q=3, j=2: all three expressions equal -zeta_5^2
    expected = -root_of_unity(5, 2)
    assert fourier_coefficient(5, 3, 2) == expected
    assert fourier_closed_form(5, 3, 2) == expected
    assert fourier_unit_ratio(5, 3, 2) == expected


def test_fourier_three_forms_agree():
    for p in (3, 5, 7, 9):
        for q in [x for x in range(1, 2 * p) if x % 2 and gcd(x, 2 * p) == 1]:
            for j in range(1, p):
                dft = fourier_coefficient(p, q, j)
                assert dft == fourier_closed_form(p, q, j)
                assert dft == fourier_unit_ratio(p, q, j)


def test_field_formulas_match_per_s_references():
    """The shared per-exponent sums and the expanded Fourier forms equal the
    references that take one root_sum per s and multiply the Fourier
    factors out: half-roots for every p <= 15, odd-p and Fourier for odd p,
    every valid q, every s in -2p..4p and every j.  Each (p, q) builds one
    table of sums per formula, every exponent t mod p at once."""
    _trace_table.cache_clear()
    _unit_ratio.cache_clear()
    distinct = {"half-roots": 0, "odd-p": 0}
    for p in range(1, 16):
        units = [q for q in range(1, 2 * p, 2) if gcd(q, 2 * p) == 1]
        formulas = ("half-roots", "odd-p") if p % 2 else ("half-roots",)
        for q in units:
            for formula in formulas:
                distinct[formula] += 1
                for s in range(-2 * p, 4 * p + 1):
                    expected = eta_variant_per_s(p, q, s, formula)
                    assert eta_variant(p, q, s, formula) == expected, (p, q, s, formula)
            for j in range(1, p) if p % 2 else ():
                assert fourier_closed_form(p, q, j) == fourier_closed_form_product(p, q, j)
                assert fourier_unit_ratio(p, q, j) == fourier_unit_ratio_product(p, q, j)
    assert _trace_table.cache_info().currsize == distinct["half-roots"] + distinct["odd-p"]


def test_fourier_forms_match_per_j_references_at_composite_p():
    """At p = 21, 25 and 27, for every q and every j, the unit ratio (a
    Galois conjugate of its value at j = 1 for j prime to p, a root_sum for
    the j that share a factor with p) and the closed form equal their
    references multiplied out at that j."""
    _unit_ratio.cache_clear()
    for p in (21, 25, 27):
        for q in [x for x in range(1, 2 * p, 2) if gcd(x, 2 * p) == 1]:
            for j in range(1, p):
                ratio, closed = fourier_unit_ratio(p, q, j), fourier_closed_form(p, q, j)
                assert ratio == fourier_unit_ratio_product(p, q, j), (p, q, j)
                assert closed == fourier_closed_form_product(p, q, j), (p, q, j)


def _count_field_work(monkeypatch) -> dict:
    """Count Cyclotomic inverses, products of two field elements,
    as_rational calls, whole-vector integer trace kernels and times_root
    calls from here on ("closed" is for the caller's count of closed-form
    inverses)."""
    calls = {"inverse": 0, "mul": 0, "as_rational": 0, "kernel": 0, "times_root": 0, "closed": 0}
    inverse, mul, as_rational = Cyclotomic.inverse, Cyclotomic.__mul__, Cyclotomic.as_rational
    kernel, times_root = Cyclotomic._trace_numerators, Cyclotomic.times_root

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_mul(self, other):
        calls["mul"] += isinstance(other, Cyclotomic)
        return mul(self, other)

    def counted_as_rational(self):
        calls["as_rational"] += 1
        return as_rational(self)

    def counted_kernel(self):
        calls["kernel"] += 1
        return kernel(self)

    def counted_times_root(self, k):
        calls["times_root"] += 1
        return times_root(self, k)

    monkeypatch.setattr(Cyclotomic, "inverse", counted_inverse)
    monkeypatch.setattr(Cyclotomic, "_trace_numerators", counted_kernel)
    monkeypatch.setattr(Cyclotomic, "times_root", counted_times_root)
    monkeypatch.setattr(Cyclotomic, "__mul__", counted_mul)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counted_mul)
    monkeypatch.setattr(Cyclotomic, "as_rational", counted_as_rational)
    return calls


def _clear_field_caches():
    for cache in (_inverse, _pair_product, _unit_ratio, _trace_table):
        cache.cache_clear()


def test_one_cold_value_takes_one_sum(monkeypatch):
    """From cold caches, one eta value at p = 49 builds exactly one table of
    trace sums, its formula's for (p, q), from three products, one per
    divisor m of its order with an odd cofactor: m = 2, 14, 98 for
    half-roots and m = 1, 7, 49 for odd-p."""
    calls = _count_field_work(monkeypatch)
    for formula in ("half-roots", "odd-p"):
        _clear_field_caches()
        calls["mul"] = 0
        assert eta_variant(49, 5, 7, formula, max_p=49) == eta_flipspun(49, 5, 7, max_p=49)
        assert _trace_table.cache_info().currsize == 1
        assert calls["mul"] == _pair_product.cache_info().currsize == 3


def test_field_tables_equal_the_integer_table():
    """Each field formula's table (v, den) is the eta sequence entry for
    entry: v[s] * 4p == E(s) * den for the integer table E = 4p * eta, at
    every character s.  Both formulas at every odd p <= 151 and every q,
    half-roots at every even p <= 60 and every q, both at (p, q) =
    (401, 5), (1009, 5) and (2003, 5), and both at p = 4001 for six q
    (1, 5, 2p - 1 = -1, p + 2, and two seeded draws)."""
    cases = [(p, q) for p in range(1, 152, 2) for q in range(1, 2 * p, 2) if gcd(q, p) == 1]
    cases += [(p, q) for p in range(2, 61, 2) for q in range(1, 2 * p, 2) if gcd(q, p) == 1]
    cases += [(401, 5), (1009, 5), (2003, 5)]
    drawn = random.Random(4001).sample([q for q in range(7, 8001, 2) if q != 4001], 2)
    cases += [(4001, q) for q in (1, 5, 8001, 4003, *drawn)]
    for p, q in cases:
        eta_values = _eta_values(p, q)
        for c in (-1, 1) if p % 2 else (-1,):
            values, den = _trace_table(c, p, q)
            assert len(values) == 2 * p, (p, q, c)
            assert all(v * 4 * p == e * den for v, e in zip(values, eta_values)), (p, q, c)
    _clear_field_caches()


def test_one_cold_value_builds_one_fraction(monkeypatch):
    """The field tables stay integers: from cold caches, one eta_variant at
    p = 199 builds exactly one Fraction in eta, the value it returns."""
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(eta, "Fraction", counted)
    for formula in ("half-roots", "odd-p"):
        _clear_field_caches()
        built.clear()
        value = eta_variant(199, 5, 7, formula, max_p=199)
        assert len(built) == 1, formula
        assert value == Fraction(_eta_values(199, 5)[7], 4 * 199)
    _clear_field_caches()


def test_corrupt_divisor_element_is_caught(monkeypatch):
    """The trace tables are rational by construction, so the value check
    against the integer table is what catches a wrong field element: adding
    1 to the element of any one divisor m (so its trace at exponent t moves
    by Tr(zeta_m^t) / p, nonzero at t = 0) makes some value at p = 5 differ
    from eta_flipspun."""
    for formula, divisors in (("half-roots", (2, 10)), ("odd-p", (1, 5))):
        for bad in divisors:
            def corrupted(n, a, b, c, bad=bad):
                element = _inverse_product(n, a, b, c)
                return element + 1 if n == bad else element

            monkeypatch.setattr(eta, "_inverse_product", corrupted)
            _trace_table.cache_clear()
            values = [eta_variant(5, 1, s, formula) for s in range(10)]
            assert values != list(eta_table(5, 1)), (formula, bad)
            monkeypatch.undo()
    _trace_table.cache_clear()
    for formula in ("half-roots", "odd-p"):
        assert [eta_variant(5, 1, s, formula) for s in range(10)] == list(eta_table(5, 1))


def test_per_s_reference_is_checked_rational(monkeypatch):
    """The per-s reference still sums full field elements and collapses
    each with as_rational: weights zeta_n, 0, 0, 0, 0 are not Galois-stable,
    so their sum leaves Q and raises NotRationalError."""
    for n, formula, ks in ((10, "half-roots", range(1, 10, 2)), (5, "odd-p", range(5))):
        zeta = root_of_unity(n, 1)
        weights = tuple((k, zeta if i == 0 else zeta - zeta) for i, k in enumerate(ks))
        monkeypatch.setattr(oracles, "_per_s_weights", lambda p, q, f, weights=weights: weights)
        with pytest.raises(NotRationalError):
            eta_variant_per_s(5, 1, 0, formula)
    monkeypatch.undo()
    for formula in ("half-roots", "odd-p"):
        assert eta_variant_per_s(5, 1, 0, formula) == eta_flipspun(5, 1, 0)


def test_cached_unit_inverses_equal_the_euclidean_ones():
    """Each cached _inverse(n, m, c) = 1/(zeta_n^m + c), at the shift c = -1
    for every m != 0 and at c = 1 for every m at odd n, is the extended-Euclid
    inverse of the reference: every m for every n <= 60, whether it is a
    Galois conjugate (m prime to n, m != 1) or a closed form, and for every
    n <= 200 the closed forms, m = 1 and every m sharing a factor with n;
    both shifts share one cache, so a value filed under the wrong shift
    fails here."""
    _inverse.cache_clear()
    for n in range(1, 201):
        for c, ms in ((-1, range(1, n)), (1, range(n) if n % 2 else ())):
            for m in ms:
                if n <= 60 or m == 1 or gcd(m, n) > 1:
                    assert _inverse(n, m, c) == oracles.euclidean_inverse(n, m, c), (n, m, c)
    _inverse.cache_clear()
    oracles.euclidean_inverse.cache_clear()


def test_a_corrupt_closed_form_fails_its_certificate(monkeypatch):
    """_inverse certifies each closed form by x * zeta_n^m + c * x = 1: one
    power-basis coefficient of the closed form moved by 1/n, for each term
    at a few orders and both shifts (m = 1, and an m sharing a factor with
    n), makes _inverse raise AssertionError rather than return."""
    closed = eta._closed_inverse
    for n, m, c in ((7, 1, 1), (9, 3, 1), (10, 1, -1), (12, 4, -1), (15, 5, 1)):
        deg = len(closed(n, m, c)._num)
        for term in range(deg):
            def corrupted(n, m, c, term=term):
                return closed(n, m, c) + Cyclotomic(n, [0] * term + [Fraction(1, n)])

            monkeypatch.setattr(eta, "_closed_inverse", corrupted)
            _inverse.cache_clear()
            with pytest.raises(AssertionError, match="failed its certificate"):
                _inverse(n, m, c)
            monkeypatch.undo()
    _inverse.cache_clear()
    assert _inverse(7, 1, 1) * (root_of_unity(7, 1) + 1) == 1


def test_each_distinct_field_element_once(monkeypatch):
    """From cold caches, every oracle block for p = 3, 5, 7, 9, 11 (both eta
    formulas at every s, both Fourier forms at every j, every q) runs no
    Euclidean inverse: each inverse whose exponent is 1 or not prime to the
    order is a closed form, certified by one times_root, and no other path
    rotates (the Fourier closed form is one cached product), so the
    times_root calls equal the closed forms built, at most 21.  It runs at
    most 174 products of two field elements, one per unordered
    pair of inverses that a trace table (one per divisor order), a closed
    form or a root_sum unit ratio reads; one inverse and one product per use
    would be 100 and 872.  The 56 trace tables, one per (formula, p, q), are rational
    by construction and never call as_rational; they read 124 whole-vector
    integer trace kernels, one per divisor element of each table (every
    trace of it at once, where one kernel per (exponent, divisor) took
    1036), and build no Fraction per trace.  The unit ratio
    runs its root_sum 40 times: once per (p, q) at j = 1 (28) and at the 12
    (q, j) with 3 | j at p = 9; every other j is a Galois conjugate."""
    _clear_field_caches()
    calls = _count_field_work(monkeypatch)
    closed = eta._closed_inverse

    def counted_closed(n, m, c):
        calls["closed"] += 1
        return closed(n, m, c)

    monkeypatch.setattr(eta, "_closed_inverse", counted_closed)
    for p in (3, 5, 7, 9, 11):
        for q in [x for x in range(1, 2 * p, 2) if gcd(x, 2 * p) == 1]:
            for s in range(2 * p):
                expected = eta_flipspun(p, q, s)
                assert eta_variant(p, q, s, "half-roots") == expected
                assert eta_variant(p, q, s, "odd-p") == expected
            for j in range(1, p):
                assert fourier_closed_form(p, q, j) == fourier_unit_ratio(p, q, j)
    assert calls["inverse"] == 0
    assert calls["times_root"] == calls["closed"] <= 21
    assert calls["mul"] <= 174
    assert calls["as_rational"] == 0
    assert calls["kernel"] == 124
    assert _unit_ratio.cache_info().misses == 28 + 12
    assert _trace_table.cache_info().currsize == 56


def test_fourier_parameter_errors():
    with pytest.raises(ParameterError):
        fourier_coefficient(4, 1, 1)
    with pytest.raises(ParameterError):
        fourier_coefficient(5, 1, 0)
    with pytest.raises(ParameterError):
        fourier_coefficient(5, 1, 5)


def test_distinguish_examples():
    assert 1 in distinguish_metrics(5, 1, 1).matches
    r = distinguish_metrics(5, 1, 3)
    assert r.distinguishable and r.matches == ()
    r = distinguish_metrics(7, 3, 5)  # 3*5 = 15 = 1 mod 14
    assert not r.distinguishable
    assert 9 in r.matches  # a = -q' mod 14


def test_distinguish_iff_inverse_pair():
    for p in (3, 5, 7):
        n = 2 * p
        qs = [x for x in range(1, n) if x % 2 and gcd(x, n) == 1]
        for q in qs:
            for qp in qs:
                expected = qp == q or (q * qp) % n == 1 % n
                got = not distinguish_metrics(p, q, qp).distinguishable
                assert got == expected, (p, q, qp)


def test_distinguish_symmetry():
    for p in (3, 5, 7):
        n = 2 * p
        qs = [x for x in range(1, n) if x % 2 and gcd(x, n) == 1]
        for q in qs:
            for qp in qs:
                a = distinguish_metrics(p, q, qp).distinguishable
                b = distinguish_metrics(p, qp, q).distinguishable
                assert a == b


def test_distinguish_even_p():
    for q, qp in ((1, 3), (1, 1)):
        with pytest.raises(ParameterError, match="^p must be odd$"):
            distinguish_metrics(4, q, qp)


def test_component_classes():
    assert component_classes(3) == [[1], [5]]
    classes = component_classes(11)
    assert classes == [[1], [3, 15], [5, 9], [7, 19], [13, 17], [21]]
    assert len(classes) == 6


def test_component_classes_equivalence_relation():
    for p in (5, 9):
        classes = component_classes(p)
        for cls in classes:
            for q in cls:
                for qp in cls:
                    assert not distinguish_metrics(p, q, qp).distinguishable
        flat = [q for cls in classes for q in cls]
        assert sorted(flat) == [x for x in range(1, 2 * p) if x % 2 and gcd(x, 2 * p) == 1]
        for i, cls in enumerate(classes):
            for other in classes[i + 1 :]:
                assert distinguish_metrics(p, cls[0], other[0]).distinguishable


def test_matching_sweep_agrees_with_distinguish_and_classes():
    """sweep's table, cell by cell, against the pairwise decision, and its
    classes (component_classes) against the partition of that table."""
    for p in range(1, 16, 2):
        qs, table, classes = matching_sweep(p)
        assert qs == [x for x in range(1, 2 * p) if x % 2 and gcd(x, 2 * p) == 1]
        assert list(table) == [(q, qp) for q in qs for qp in qs]
        for (q, qp), matches in table.items():
            assert matches == distinguish_metrics(p, q, qp).matches, (p, q, qp)
        assert classes == component_classes(p) == partition(qs, lambda q, qp: bool(table[q, qp]))


def test_matching_agrees_with_reference_scan():
    """The reference Fraction scan against distinguish_metrics and every
    matching_sweep cell, odd p <= 25."""
    for p in range(1, 26, 2):
        _, table, _ = matching_sweep(p)
        for (q, qp), matches in table.items():
            assert eta_matches(p, q, qp) == matches == distinguish_metrics(p, q, qp).matches


def test_component_classes_agree_with_reference_partition():
    """Odd p <= 49: the reference reads eta_table at the default budget."""
    for p in range(1, 50, 2):
        assert component_classes(p) == matching_classes(p), p


def test_component_classes_are_the_inverse_pairs():
    """The classes are {q, q^-1 mod 2p} in order of least member, for every
    odd p <= 201 and at the sampled p = 255, 273 and 301 (a check of the
    theorem, which the package never uses)."""
    for p in (*range(1, 202, 2), 255, 273, 301):
        n = 2 * p
        units = [q for q in range(1, n, 2) if gcd(q, n) == 1]
        expected = [sorted({q, pow(q, -1, n)}) for q in units if q <= pow(q, -1, n)]
        assert component_classes(p, max_p=301) == expected, p


def test_canonical_form_is_the_brute_force_minimum():
    """_canonical's key is the first p columns of the least of all
    relabelled tables, which is that key followed by its negation, and its
    M every unit that reaches it, for every q at odd p <= 61: this covers
    the stop at one survivor and the exit with several (q = 1 has
    M = {1, 2p - 1})."""
    for p in range(1, 62, 2):
        n = 2 * p
        units = [a for a in range(1, n, 2) if gcd(a, n) == 1]
        for q in units:
            table = _eta_values(p, q)
            relabelled = {a: tuple(table[(a * s) % n] for s in range(n)) for a in units}
            least = min(relabelled.values())
            minimisers = tuple(a for a in units if relabelled[a] == least)
            key, found = _canonical(_eta_values(p, q), units)
            assert (key, found) == (least[:p], minimisers), (p, q)
            assert least == key + tuple(-v for v in key), (p, q)
        if p > 1:
            assert _canonical(_eta_values(p, 1), units)[1] == (1, n - 1), p


def test_class_tables_are_not_cached():
    """component_classes and matching_sweep read each table once and keep
    none: both table caches stay empty."""
    for p in (1, 3, 15, 49):
        rho_table.cache_clear()
        eta_table.cache_clear()
        component_classes(p)
        matching_sweep(p)
        assert rho_table.cache_info().currsize == eta_table.cache_info().currsize == 0, p


def test_public_values_are_fractions():
    """Fraction(0) == 0, so the value tests alone cannot see an int leak out."""
    values = [rho_lens(6, 1, 3), eta_flipspun(5, 3, 0), eta_variant(5, 3, 0, "pinc-difference")]
    values += [*rho_table(6, 1), *rho_table(1, 0), *eta_table(5, 3)]
    assert all(type(v) is Fraction for v in values)


def test_matching_rejects_nonpositive_p():
    for p in (-5, -3, -1):
        with pytest.raises(ParameterError, match="p must be positive"):
            component_classes(p)
        with pytest.raises(ParameterError, match="p must be positive"):
            matching_sweep(p)
    for p in (0, -4):
        with pytest.raises(ParameterError, match="p must be odd"):
            component_classes(p)


def test_resource_bound():
    with pytest.raises(ResourceBoundError):
        eta_flipspun(51, 1, 0)
    with pytest.raises(ResourceBoundError):
        rho_lens(102, 1, 1)
    with pytest.raises(ResourceBoundError):
        component_classes(53)
    # explicit override unlocks larger sizes
    assert eta_flipspun(51, 1, 0, max_p=51) == -eta_flipspun(51, 1, 51, max_p=51)


def test_rho_budget_names_the_order():
    # the budget of L(n, q) is on n = 2p: n <= 2 * max_p, stated in n
    assert len(rho_table(100, 1)) == 100
    for n in (101, 102):
        message = f"^order n={n} exceeds the size budget 100; raise max_p explicitly to override$"
        for call in (lambda: rho_lens(n, 1, 1), lambda: rho_table(n, 1)):
            with pytest.raises(ResourceBoundError, match=message):
                call()
    with pytest.raises(ResourceBoundError, match="^order n=8 exceeds the size budget 6;"):
        rho_lens(8, 1, 1, max_p=3)


def test_table_caches_key_on_normalized_parameters():
    rho_table.cache_clear()
    eta_table.cache_clear()
    assert rho_table(6, 1) == rho_table(6, 1, 50) == rho_table(6, 7)
    info = rho_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert eta_table(3, 1) == eta_table(3, 7)
    info = eta_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # each table of trace sums is built once per (formula, p, q mod 2p): one
    # for the 14 s at p = 7, whichever representative of q is given
    for formula in ("half-roots", "odd-p"):
        _trace_table.cache_clear()
        values = [eta_variant(7, q, s, formula) for q in (3, 17, -11) for s in range(14)]
        assert values == [eta_flipspun(7, 3, s) for s in range(14)] * 3
        info = _trace_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


def test_cached_table_keeps_the_budget():
    # a table cached under a raised budget is still refused at the default
    assert len(rho_table(102, 1, max_p=51)) == 102
    assert len(eta_table(51, 1, max_p=51)) == 102
    with pytest.raises(ResourceBoundError):
        rho_table(102, 1)
    with pytest.raises(ResourceBoundError):
        eta_table(51, 1)


def test_single_entries_match_the_tables():
    # one entry is read from the cached integers, at any s, negative and
    # out of range included; the order runs over n <= 40 for both
    for n in range(1, 41):
        for q in (q for q in range(n) if gcd(q, n) == 1 or n == 1):
            table = rho_table(n, q)
            for s in range(-2 * n - 1, 2 * n + 2):
                assert rho_lens(n, q, s) == table[s % n]
    for p in range(1, 21):
        for q in range(1, 2 * p, 2):
            if gcd(q, p) != 1:
                continue
            table = eta_table(p, q)
            for s in range(-4 * p - 1, 4 * p + 2):
                value = eta_flipspun(p, q, s)
                assert value == table[s % (2 * p)] == eta_variant(p, q, s, "pinc-difference")


def test_eta_table_consistency():
    table = eta_table(5, 3)
    assert len(table) == 10
    for s in range(10):
        assert table[s] == eta_flipspun(5, 3, s)
