"""Independent reference evaluations of the rho and eta sums.

The float oracles evaluate the same sums as the exact code but entirely
in complex double arithmetic, with no use of the package's field
machinery.  rho_table_cyclotomic is the exact reference for the integer
rho tables: it evaluates the defining root-of-unity sum in Q(zeta_n).
"""

import cmath
from fractions import Fraction

from lenswall.cyclotomic import Cyclotomic
from lenswall.eta import LensSpace, _unit_inverse


def rho_table_cyclotomic(n: int, q: int) -> tuple[Fraction, ...]:
    """Reduced eta invariants of L(n, q) for every character s = 0..n-1.

    Entry s is (1/n) * sum over lam with lam^n = 1, lam != 1 of
    (lam^s - 1) lam^q / ((lam^q - 1)(lam - 1)), collapsed to an exact
    rational.  The per-root base factors are shared across all s.
    """
    space = LensSpace(n, q)
    n, q = space.n, space.q
    if n == 1:
        return (Fraction(0),)
    base = []
    for k in range(1, n):
        b = _unit_inverse(n, (k * q) % n) * _unit_inverse(n, k)
        base.append(b.times_root(k * q))
    total = Cyclotomic.zero(n)
    for b in base:
        total = total + b
    values = []
    for s in range(n):
        acc = Cyclotomic.zero(n)
        for k, b in enumerate(base, start=1):
            acc = acc + b.times_root(k * s)
        # NotRationalError here would mean an arithmetic bug: the summation
        # set is Galois-stable, so the value is forced into Q.
        values.append((acc - total).as_rational() / n)
    return tuple(values)


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
