"""Integer polynomials as coefficient lists, constant term first: exact
division by a monic divisor, the cyclotomic polynomials Phi_n, and the
factors Phi_k of a monic integer polynomial.

Phi_n itself is built by one identity from Phi_(n/p), p the largest
prime of n: Phi_n(x) = Phi_m(x^p) if p divides m = n/p, else the exact
quotient Phi_m(x^p) / Phi_m(x).

Kronecker's theorem says that a monic integer polynomial has all its
roots on the unit circle iff it is a product of cyclotomic polynomials
Phi_k.  `_cyclotomic_factors` strips those factors by exact division in
ascending k and returns what is left: the lattice reads the unipotent
power of an isometry off the k it finds.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import ParameterError

__all__ = ["cyclotomic_polynomial"]


def _poly_trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _poly_divmod(num, den):
    """Quotient and remainder of integer coefficient lists (constant term
    first) by a monic integer divisor, so no division is needed."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j, d in enumerate(den, i - dn):
                num[j] -= c * d
    return quot, _poly_trim(num)


def _primes(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (none for n = 1)."""
    primes, rest, f = [], n, 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    return primes + [rest] * (rest > 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic.

    Phi_1 = x - 1.  For n > 1, with p the largest prime of n and m = n/p,
    the roots of Phi_m(x^p) are the primitive n-th roots of unity, and
    also the primitive m-th ones unless p divides m; so Phi_n(x) is
    Phi_m(x^p) or the exact quotient Phi_m(x^p) / Phi_m(x).  The largest
    p keeps the divisor small: at n = 2 * 4001 it is Phi_2 = x + 1, not
    the dense Phi_4001.
    """
    if n < 1:
        raise ParameterError(f"cyclotomic polynomial needs n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    p = _primes(n)[-1]
    base = cyclotomic_polynomial(n // p)
    spread = [0] * ((len(base) - 1) * p + 1)
    spread[::p] = base
    if n // p % p == 0:
        return tuple(spread)
    quot, rem = _poly_divmod(spread, base)
    if rem:
        raise AssertionError
    return tuple(quot)


def _cyclotomic_factors(poly) -> tuple[list[int], list[int]]:
    """(ks, rest) for a monic integer polynomial: poly is rest times the
    product of Phi_k over ks, which lists each stripped factor's k once per
    factor, ascending.

    The factors are divided out exactly in ascending k.  Phi_k divides the
    rest, of degree d, only if phi(k) <= d, so a larger phi(k) is skipped
    without building Phi_k; and phi(k) >= sqrt(k/2), so no k > 2d^2 can
    divide and the strip stops there.  So rest has positive degree iff poly
    has a root off the unit circle (Kronecker)."""
    ks, rest, k = [], list(poly), 1
    while len(rest) > 1:
        degree = len(rest) - 1
        if k > 2 * degree * degree:
            break
        primes = _primes(k)
        if k // prod(primes) * prod(p - 1 for p in primes) <= degree:  # phi(k)
            quot, rem = _poly_divmod(rest, cyclotomic_polynomial(k))
            if not rem:
                ks.append(k)
                rest = quot
                continue
        k += 1
    return ks, rest
