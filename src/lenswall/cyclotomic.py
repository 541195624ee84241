"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Elements are represented on the power basis 1, z, ..., z^(phi(n)-1) of
Q[x]/Phi_n(x) as one tuple of integer numerators over one positive
common denominator, normalized so that the denominator is coprime to the
content of the numerators.  Equality and hashing are therefore
structural, and every field operation is integer arithmetic (the
numerator/denominator representation of Cohen, A Course in Computational
Algebraic Number Theory, 1993, section 4.2).  Fractions appear only at
the boundary: constructor input, scalar operands, `coeffs` and
`as_rational`.  The quotient is by the n-th cyclotomic polynomial (a
field), not by x^n - 1: the eta sums downstream divide by cyclotomic
units and need genuine inverses.  They take them from a certified closed
form (`eta._inverse`); the extended-Euclid `inverse` stays as a general
inverse that no package path calls.

A product multiplies the two numerator vectors schoolbook below
_PACKED_DEGREE terms and, from there on, packs each into one integer at a
power-of-two radix and takes one big-integer product (Kronecker
substitution), then folds and normalizes once.

A sum of terms b * zeta_n^e (`root_sum`) puts the b over one common
denominator, adds their numerators rotated by e and reduces mod Phi_n
once.  A product by a root of unity (`times_root`) and a Galois conjugate
(`conjugate`) move the exponents and fold once; both map Z[zeta_n] onto
itself, so they keep the denominator.  The traces Tr(zeta_n^t * x), the
sums of all conjugates, are read for every t at once
(`_trace_numerators`), as the integers den * Tr, with no product and no
fold: Ramanujan's sum c_n(j) = Tr(zeta_n^j) is the Moebius sum of d over
the divisors d of gcd(j, n) with weight mu(n/d), so the traces are the
numerators summed over each residue class mod d, for each d | n with n/d
squarefree.  The eta tables add these integers and build one Fraction
per value read.

Phi_n, the primes of n and the trimming of coefficient lists come from
`lenswall.poly`, the integer polynomial layer that the lattice also uses.

Elements of different orders are never combined: mixing orders in
arithmetic raises OrderMismatchError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import NotRationalError, OrderMismatchError, ParameterError
from .poly import _poly_trim, _primes, cyclotomic_polynomial

__all__ = ["Cyclotomic", "cyclotomic_polynomial", "root_of_unity", "root_sum"]

_set = object.__setattr__

# Products of numerator vectors of this many terms (the degree phi(n)) and
# more are packed (_packed_product); shorter ones are schoolbook.  Measured
# on the products 1/(zeta_n + c) * 1/(zeta_n^a + c) of the eta sums (timeit,
# best of 5; 2 vCPU x86_64, Python 3.11.7), packed over schoolbook time:
# 2.5-4.8 at degree 6-10, 0.8-1.7 at degree 18-24, 0.7-1.1 at degree
# 30-36, and 0.33-0.91 at every degree 40-42 measured, 0.21-0.55 at 66-70,
# 0.18 at 198.
_PACKED_DEGREE = 40


@lru_cache(maxsize=None)
def _moebius_classes(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, mu(n/d) * d) over the divisors d of n with n/d
    squarefree, the only ones with mu(n/d) != 0: Ramanujan's sum
    c_n(j) = Tr(zeta_n^j) is the sum of mu(n/d) * d over the d | gcd(j, n)
    (Hardy-Wright, ch. XVI)."""
    pairs = [(1, 1)]  # (e, mu(e)) over the squarefree e | n
    for prime in _primes(n):
        pairs += [(e * prime, -mu) for e, mu in pairs]
    return tuple((n // e, mu * (n // e)) for e, mu in pairs)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^e mod Phi_n for e = phi(n) .. n-1, the exponents that a fold
    reduces, each row the (index, coefficient) pairs of its nonzero
    power-basis coefficients."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    # Phi_n is monic, so x^deg = -phi[:-1]; each next row is x * row, its
    # x^deg term folded back the same way.  Rows are kept sparse, so a row
    # costs its length, not deg, and many are short: for even n,
    # x^(n/2) = -1, so x^e for e >= n/2 is -x^(e - n/2), one term while
    # e - n/2 < deg
    top = {i: -c for i, c in enumerate(phi[:-1]) if c}
    rows, row = [], dict(top)
    for _ in range(deg, n):
        rows.append(tuple(row.items()))
        lead = row.pop(deg - 1, 0)
        row = {i + 1: c for i, c in row.items()}
        if lead:
            for i, c in top.items():
                row[i] = row.get(i, 0) + lead * c
                if not row[i]:
                    del row[i]
    return tuple(rows)


def _wrap(n: int, coeffs) -> list:
    """Coefficients of x^0 .. x^(n-1) of an integer polynomial mod x^n - 1."""
    full = list(coeffs[:n]) + [0] * (n - len(coeffs))
    for e in range(n, len(coeffs)):
        full[e % n] += coeffs[e]
    return full


def _fold(n: int, full: list) -> tuple[int, ...]:
    """Reduce the n coefficients of x^0 .. x^(n-1) into the power basis
    of Q[x]/Phi_n (x^n = 1 there, so these exponents cover every power)."""
    table = _power_table(n)
    deg = n - len(table)
    out = full[:deg]
    for c, row in zip(full[deg:], table):
        if c:
            for i, r in row:
                out[i] += c * r
    return tuple(out)


class Cyclotomic:
    """An exact element of Q(zeta_n) on the power basis of Q[x]/Phi_n."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ParameterError(f"order must be >= 1, got {order}")
        values = [Fraction(c) for c in coeffs]
        den = lcm(1, *(v.denominator for v in values))
        num = [v.numerator * (den // v.denominator) for v in values]
        num, den = _normalize(order, num, den)
        _set(self, "order", order)
        _set(self, "_num", num)
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic elements are immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _make: restoring the slots one by
        # one would go through the blocked __setattr__
        return Cyclotomic._make, (self.order, self._num, self._den)

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, order: int, num: tuple, den: int) -> "Cyclotomic":
        # trusted fast path: num/den already canonical
        self = object.__new__(cls)
        _set(self, "order", order)
        _set(self, "_num", num)
        _set(self, "_den", den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    # -- ring / field operations ----------------------------------------

    def _check_order(self, other: "Cyclotomic") -> None:
        if other.order != self.order:
            raise OrderMismatchError(f"orders differ ({self.order} vs {other.order})")

    def __add__(self, other):
        n, da = self.order, self._den
        if isinstance(other, (int, Fraction)):
            # a scalar only moves the constant numerator
            num = [a * other.denominator for a in self._num]
            num[0] += other.numerator * da
            return Cyclotomic._make(n, *_normalize(n, num, da * other.denominator))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_order(other)
        db = other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        num = [a * fa + b * fb for a, b in zip(self._num, other._num)]
        return Cyclotomic._make(n, *_normalize(n, num, da * fa))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple(-a for a in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            value = Fraction(other)
            n, den = self.order, self._den * value.denominator
            num = [a * value.numerator for a in self._num]
            return Cyclotomic._make(n, *_normalize(n, num, den))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_order(other)
        n, den = self.order, self._den * other._den
        return Cyclotomic._make(n, *_normalize(n, _product(self._num, other._num), den))

    __rmul__ = __mul__

    def times_root(self, k: int) -> "Cyclotomic":
        """Multiply by zeta_n^k: the coefficients rotate through the
        exponents 0 .. n-1 and are folded back once by the power table
        instead of multiplied out.  zeta_n^k is a unit of Z[zeta_n], so, as
        for `conjugate`, the content of the numerators and the canonical
        denominator are kept."""
        n, num = self.order, self._num
        full = list(num) + [0] * (n - len(num))
        k %= n
        return Cyclotomic._make(n, _fold(n, full[-k:] + full[:-k]), self._den)

    def conjugate(self, m: int) -> "Cyclotomic":
        """The Galois automorphism sigma_m: zeta_n -> zeta_n^m, defined for
        m prime to n (Gal(Q(zeta_n)/Q) is (Z/n)^x).

        Power-basis exponent i moves to i*m mod n and the n coefficients are
        folded once.  sigma_m maps Z[zeta_n] onto itself, so the content of
        the numerators, and with it the canonical denominator, is kept.
        """
        n = self.order
        if gcd(m, n) != 1:
            raise ParameterError(f"m={m} is not prime to the order n={n}")
        full = [0] * n
        for i, c in enumerate(self._num):
            full[i * m % n] = c
        return Cyclotomic._make(n, _fold(n, full), self._den)

    def _trace_numerators(self) -> tuple[int, ...]:
        """den * Tr(zeta_n^t * self) for t = 0 .. n-1, integers.

        The trace is linear and Tr(zeta_n^j) is Ramanujan's sum
        c_n(j) = sum of mu(n/d) * d over the d | gcd(j, n), so entry t is
        sum_i num_i * c_n(i + t) = sum over d | n of mu(n/d) * d * S_d(-t),
        S_d(r) the sum of the numerators num_i with i = r mod d.  So each d
        with n/d squarefree adds its weighted class sums, repeated n/d times,
        into V(u) = sum_d mu(n/d) * d * S_d(u mod d), and entry t is
        V(-t mod n): O(n) integer work per such d, for all n traces."""
        n, num = self.order, self._num
        full = list(num) + [0] * (n - len(num))
        total = [0] * n
        for d, weight in _moebius_classes(n):
            sums = full if d == n else [sum(full[r::d]) for r in range(d)]
            total = list(map(add, total, [weight * c for c in sums] * (n // d)))
        return (total[0], *total[:0:-1])

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm on
        (numerator polynomial A, Phi_n) over Z.

        Every remainder r is kept with a cofactor s such that
        r = s * A mod Phi_n.  A leading term is cancelled with integer
        multipliers, and each new remainder is divided, with its cofactor,
        by their common content, so the denominators are cleared at every
        step.  Since Phi_n is irreducible the sequence ends at a nonzero
        constant c = s * A, and the inverse of A/d is d * s / c.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in Q(zeta_n)")
        r0, s0 = list(cyclotomic_polynomial(self.order)), []
        r1, s1 = _poly_trim(list(self._num)), [1]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                shift = len(r0) - len(r1)
                g = gcd(r0[-1], r1[-1])
                a, b = r1[-1] // g, r0[-1] // g
                r0 = _poly_trim(_cancel(a, r0, b, shift, r1))
                s0 = _poly_trim(_cancel(a, s0, b, shift, s1))
            g = gcd(*r0, *s0)
            r0, s0, r1, s1 = r1, s1, [c // g for c in r0], [c // g for c in s0]
        n, num = self.order, [self._den * c for c in s1]
        return Cyclotomic._make(n, *_normalize(n, num, r1[0]))

    # -- rationality -----------------------------------------------------

    def as_rational(self) -> Fraction:
        """The unique rational value, if the element lies in Q.

        Raises NotRationalError (carrying the element) when any power-basis
        coefficient above the constant term is nonzero.
        """
        if not self.is_rational():
            raise NotRationalError(self)
        return Fraction(self._num[0], self._den)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return (
                self.order == other.order
                and self._den == other._den
                and self._num == other._num
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self._num[0], self._den) == other
        return NotImplemented

    def __hash__(self):
        # a rational element equals its scalar, so it hashes like it
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.order, self._num, self._den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        n = self.order
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{n}")
            else:
                terms.append(f"{c}*z{n}^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic({n}: {body})"


def _normalize(order: int, num, den: int) -> tuple[tuple[int, ...], int]:
    """Canonical (numerators, denominator) of num/den in Q(zeta_order):
    num is reduced into the power basis if longer than phi(order), den is
    made positive and both are divided by gcd(content, den)."""
    deg = len(cyclotomic_polynomial(order)) - 1
    if len(num) > deg:
        num = _fold(order, _wrap(order, num))
    elif len(num) < deg:
        num = list(num) + [0] * (deg - len(num))
    if den < 0:
        num, den = [-c for c in num], -den
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _product(a: tuple, b: tuple) -> list:
    """The coefficients of the product of the integer polynomials a and b
    (lowest degree first, both nonempty): schoolbook below _PACKED_DEGREE
    terms, one packed integer product (_packed_product) from there on."""
    if len(a) >= _PACKED_DEGREE:
        return _packed_product(a, b)
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    return prod


def _packed_product(a: tuple, b: tuple) -> list:
    """a * b by Kronecker substitution: each vector is packed into one
    integer at the radix R = 2^(8w), the two integers are multiplied once
    (CPython multiplies large ints by Karatsuba) and the product's digits
    are read back.  Every product coefficient c has
    |c| <= min(len a, len b) * max|a| * max|b| < R/2 by the choice of w, so
    the digits are stored offset by R/2: each packed vector is its bytes
    of c + R/2 minus the offset R/2 * sum R^i, and the product plus that
    offset has the bytes of c + R/2, all in [0, R)."""
    bits = sum(max(map(abs, v)).bit_length() for v in (a, b)) + min(len(a), len(b)).bit_length()
    width = bits // 8 + 1  # bytes per digit, 8 * width >= bits + 1
    half = 1 << (8 * width - 1)
    offset = bytes(width - 1) + b"\x80"  # the digit R/2, little-endian

    def pack(vec) -> int:
        raw = b"".join([(c + half).to_bytes(width, "little") for c in vec])
        return int.from_bytes(raw, "little") - int.from_bytes(offset * len(vec), "little")

    length = len(a) + len(b) - 1
    total = pack(a) * pack(b) + int.from_bytes(offset * length, "little")
    raw = total.to_bytes(width * length, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def _cancel(a: int, u: list, b: int, shift: int, v: list) -> list:
    """a*u - b*x^shift*v on integer coefficient lists."""
    out = [a * c for c in u] + [0] * max(0, len(v) + shift - len(u))
    for i, c in enumerate(v, shift):
        out[i] -= b * c
    return out


def root_sum(order: int, terms) -> Cyclotomic:
    """sum of b * zeta_order^e over the (b, e) pairs in terms: the b are put
    over one common denominator, and their numerators, scaled to it, are
    rotated by e into one buffer, which is wrapped, folded and normalized
    once; every b must have the given order."""
    terms = list(terms)
    for b, _ in terms:
        if b.order != order:
            raise OrderMismatchError(f"orders differ ({order} vs {b.order})")
    den = lcm(1, *(b._den for b, _ in terms))
    full = [0] * (2 * order)
    for b, e in terms:
        scale = den // b._den
        for i, c in enumerate(b._num, e % order):
            full[i] += c * scale
    return Cyclotomic._make(order, *_normalize(order, full, den))


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k in canonical reduced form; k is taken mod n."""
    if n < 1:
        raise ParameterError(f"root of unity needs n >= 1, got {n}")
    full = [0] * n
    full[k % n] = 1
    # a unit of Z[zeta_n]: its numerators have content 1
    return Cyclotomic._make(n, _fold(n, full), 1)

