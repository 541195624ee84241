"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

Elements are represented on the power basis 1, z, ..., z^(phi(n)-1) of
Q[x]/Phi_n(x) with Fraction coefficients, kept canonically reduced after
every operation, so equality is structural.  The quotient is by the n-th
cyclotomic polynomial (a field), not by x^n - 1: the eta sums downstream
divide by cyclotomic units and need genuine inverses.

Coercion between orders is always explicit (lift_to / coerce); mixing
orders in arithmetic raises OrderMismatchError.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import NotRationalError, OrderMismatchError, ParameterError

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "coerce",
]


def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _poly_divmod(num, den):
    """Quotient and remainder of dense constant-first coefficient lists.

    Exact over Fraction; den must be nonzero.
    """
    num = list(num)
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = Fraction(c) / lead
        quot[i - dn] = q
        for j, d in enumerate(den):
            num[i - dn + j] -= q * d
    return quot, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic.

    Computed by exact division of x^n - 1 by the Phi_d over proper
    divisors d of n.
    """
    if n < 1:
        raise ParameterError(f"cyclotomic polynomial needs n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, [Fraction(c) for c in cyclotomic_polynomial(d)])
            assert not rem
    assert all(c.denominator == 1 for c in num)
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_n for e = 0 .. phi(n)+n-2, as integer coefficient rows.

    Covers every exponent produced by multiplying a reduced element by a
    monomial z^j (j < n) and by full products of reduced elements.
    """
    phi_coeffs = cyclotomic_polynomial(n)
    deg = len(phi_coeffs) - 1
    rows = []
    for e in range(deg):
        row = [0] * deg
        row[e] = 1
        rows.append(tuple(row))
    # x^e = x * x^(e-1), then fold the leading term back with
    # x^deg = -(phi_coeffs[:-1]) since Phi_n is monic.
    top = [-c for c in phi_coeffs[:-1]]
    for _ in range(deg, deg + n - 1):
        prev = rows[-1]
        shifted = [0] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(deg):
                shifted[i] += lead * top[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_mod_phi(n: int, coeffs) -> tuple[Fraction, ...]:
    """Reduce a coefficient list of degree < phi(n)+n-1 into the power basis."""
    table = _power_table(n)
    deg = len(cyclotomic_polynomial(n)) - 1
    out = [Fraction(0)] * deg
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        c = Fraction(c)
        if e < deg:
            out[e] += c
        else:
            # every caller stays below phi(n)+n-1: products of reduced
            # elements reach 2*phi-2 <= phi+n-2, lifts and monomials reach n-1
            for i, r in enumerate(table[e]):
                if r:
                    out[i] += c * r
    return tuple(out)


class Cyclotomic:
    """An exact element of Q(zeta_n) on the power basis of Q[x]/Phi_n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ParameterError(f"order must be >= 1, got {order}")
        deg = len(cyclotomic_polynomial(order)) - 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > deg:
            reduced = _reduce_mod_phi(order, coeffs)
        else:
            reduced = tuple(coeffs) + (Fraction(0),) * (deg - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic elements are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        # trusted fast path: coeffs already a canonical Fraction tuple
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls(order, (1,))

    @classmethod
    def rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, (Fraction(value),))

    # -- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    # -- ring / field operations ----------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"orders differ ({self.order} vs {other.order}); "
                    "lift explicitly with lift_to/coerce"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [a * other for a in self.coeffs])
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        return Cyclotomic(self.order, _reduce_mod_phi(self.order, prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of cyclotomic element by zero")
            return self * (Fraction(1) / Fraction(other))
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def times_root(self, k: int) -> "Cyclotomic":
        """Multiply by zeta_n^k.

        Cheaper than a general product: a coefficient shift plus table
        reduction, used heavily by the eta summations.
        """
        n = self.order
        k %= n
        if k == 0:
            return self
        table = _power_table(n)
        deg = len(self.coeffs)
        out = [Fraction(0)] * deg
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = i + k
            if e < deg:
                out[e] += c
            else:
                for j, r in enumerate(table[e]):
                    if r:
                        out[j] += c * r
        return Cyclotomic._make(n, tuple(out))

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm on
        (representative, Phi_n) over Q."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in Q(zeta_n)")
        if self.is_rational():
            return Cyclotomic.rational(self.order, Fraction(1) / self.coeffs[0])
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]  # coefficients of self in the Bezout combo
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # s_next = s0 - q * s1
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi == 0:
                    continue
                for j, sj in enumerate(s1):
                    if sj:
                        qs1[i + j] += qi * sj
            s_next = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                s_next[i] += c
            for i, c in enumerate(qs1):
                s_next[i] -= c
            s0, s1 = s1, _poly_trim(s_next)
        # r0 = gcd(self, Phi_n) is a nonzero constant since Phi_n is irreducible.
        assert len(r0) == 1
        scale = Fraction(1) / r0[0]
        return Cyclotomic(self.order, [c * scale for c in s0])

    # -- Galois action, rationality, embedding ---------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^k; requires gcd(k, order) = 1."""
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise ParameterError(f"galois exponent {k} not coprime to order {n}")
        table = _power_table(n)
        out = [Fraction(0)] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, r in enumerate(table[(i * k) % n]):
                if r:
                    out[j] += c * r
        return Cyclotomic(n, out)

    def as_rational(self) -> Fraction:
        """The unique rational value, if the element lies in Q.

        Raises NotRationalError (carrying the element) when any power-basis
        coefficient above the constant term is nonzero.
        """
        if not self.is_rational():
            raise NotRationalError(self)
        return self.coeffs[0]

    def approx_complex(self) -> complex:
        """Floating-point embedding sum(coeffs[i] * e^(2*pi*i*i/n))."""
        n = self.order
        total = complex(0)
        for i, c in enumerate(self.coeffs):
            if c != 0:
                total += complex(c) * cmath.exp(2j * cmath.pi * i / n)
        return total

    # -- order coercion ---------------------------------------------------

    def lift_to(self, order: int) -> "Cyclotomic":
        """Image in Q(zeta_order) under zeta_n -> zeta_order^(order/n)."""
        if order % self.order != 0:
            raise ParameterError(
                f"cannot lift order {self.order} into order {order}: not a multiple"
            )
        step = order // self.order
        out = [Fraction(0)] * (len(cyclotomic_polynomial(order)) - 1 + order)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] += c
        return Cyclotomic(order, _reduce_mod_phi(order, out))

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

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


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k in canonical reduced form; k is taken mod n."""
    if n < 1:
        raise ParameterError(f"root of unity needs n >= 1, got {n}")
    k %= n
    deg = len(cyclotomic_polynomial(n)) - 1
    if k < deg:
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return Cyclotomic(n, coeffs)
    return Cyclotomic(n, _power_table(n)[k])


def coerce(a: Cyclotomic, b: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
    """Lift both elements into Q(zeta_lcm) so they can be combined."""
    n = a.order * b.order // gcd(a.order, b.order)
    return a.lift_to(n), b.lift_to(n)
