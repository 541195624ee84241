"""Integer polynomials as coefficient lists, constant term first: exact
division by a monic divisor, the cyclotomic polynomials Phi_n, and the
factors Phi_k of a monic integer polynomial.

Phi_n itself is built from smaller cyclotomic polynomials: from its
radical's, Phi_n(x) = Phi_rad(n)(x^(n/rad(n))), and at twice an odd
m >= 3, Phi_2m(x) = Phi_m(-x); only odd squarefree n are divided out of
x^n - 1.

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

    For r = rad(n) < n, Phi_n(x) = Phi_r(x^(n/r)): the coefficients are
    spread n/r apart.  For squarefree n = 2m with m odd and m >= 3,
    Phi_n(x) = Phi_m(-x), since the primitive 2m-th roots of unity are
    minus the primitive m-th ones (and phi(m) is even, so the result stays
    monic).  The rest, n = 2 and odd squarefree n, is the exact division of
    x^n - 1 by the Phi_d over the proper divisors d of n.
    """
    if n < 1:
        raise ParameterError(f"cyclotomic polynomial needs n >= 1, got {n}")
    rad = prod(_primes(n))  # rad(n), 1 for n = 1
    if rad < n:
        base, step = cyclotomic_polynomial(rad), n // rad
        spread = [0] * ((len(base) - 1) * step + 1)
        spread[::step] = base
        return tuple(spread)
    if n % 2 == 0 and n > 2:
        return tuple(-c if i % 2 else c for i, c in enumerate(cyclotomic_polynomial(n // 2)))
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError
    return tuple(num)


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
