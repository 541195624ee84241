"""Exact rho invariants of lens spaces and eta invariants of flip-spun
lens spaces, Fourier coefficients of the eta sequence, and the matching
condition that separates components of the psc moduli space.

The rho and eta tables are the integers 2n * rho and 4p * eta of a
Dedekind-sum style recurrence, each built in whole-table passes (the rho
steps in one list and their running sum, the eta table as rho minus its
rotation by p), so the matching and the component classes compare integers
exactly.  One canonical form decides the matching: for each q, the least
relabelled table K(q) = min over odd units a mod 2p of E_q o a, and the
ascending units M(q) that reach it.  Every eta table is antiperiodic,
E(s + p) = -E(s), and so is every relabelling of it, so columns 0..p-1
decide K and M, and the form keeps K as those columns, K[:p].  Two tables
match iff their K[:p] agree, and then the matching units are the coset
M(q') * c^-1 for any c in M(q); distinguish_metrics, component_classes and
matching_sweep all read these forms.  The single values and
distinguish_metrics read cached tables; component_classes and matching_sweep
read each table once, uncached, and keep K[:p] as the class key, so their
memory is the keys, not the tables.  The rewritten eta sums
("half-roots", "odd-p") and the Fourier closed forms are evaluated in
cyclotomic fields, so they are independent checks of the integer path.
Each eta sum groups its roots by order into Galois traces, one per divisor m
of its order, each the trace of one element of Q(zeta_m); one product per
divisor, and every trace of it at once, give a formula's integer table over
the 2p characters (see _trace_table), so eta_variant reads all three
formulas alike, one Fraction per value.  The Fourier forms stay in
Q(zeta_p).  All four divide by elements zeta_n^m + c, with the shift c = -1
(half-roots, unit ratio) or 1 (odd-p, closed form), through one cached
inverse, _inverse(n, m, c): a Galois conjugate of the one at exponent 1
wherever the exponent is prime to the order, and otherwise the closed form
1/(y - 1) = (1/D) * sum_{j<D} j * y^j, certified at run time by one
rotation, so no Euclidean inverse runs.  Each distinct field element is
computed once: each inverse, each product of two inverses (one per shift
and unordered pair of exponents, multiplied by Kronecker substitution at
large degree), each table of sums (one entry per character) and each unit
ratio (a Galois conjugate of the one at j = 1 wherever j is prime to p).
The Fourier closed form is one such product, of the shift-1 inverses at
(-jq, j), while the unit ratio reads the shift -1 inverses at (-2jq, 2j)
through its root_sum and Galois conjugation, so the two Fourier forms
check each other at every j.
Each public function checks its arguments once, through one gate per family
that returns the reduced q: _lens_q (with its size budget) and _flipspun_q.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub

from .cyclotomic import Cyclotomic, _normalize, root_sum
from .errors import ParameterError, ResourceBoundError

__all__ = [
    "DEFAULT_MAX_P",
    "MatchingResult",
    "rho_lens",
    "rho_table",
    "eta_flipspun",
    "eta_table",
    "eta_variant",
    "fourier_coefficient",
    "fourier_closed_form",
    "fourier_unit_ratio",
    "distinguish_metrics",
    "component_classes",
    "matching_sweep",
]

# Guards the field paths (half-roots, odd-p, fourier_coefficient), whose cost
# grows with the degree phi(2p), with a resource error.  The integer tables and
# the matching are cheap but keep the same bound, so that one p is accepted or
# rejected by all of them (rho's order n = 2p is bounded by 2 * max_p);
# fourier_closed_form and fourier_unit_ratio take none.  Measured integer-path
# costs (bench/layers.py, medians of 5 fresh processes; 2 vCPU, Python
# 3.11.7): component_classes takes 0.43 s and peaks at 47 MB RSS at p = 1001,
# and 1.51 s and 113 MB at p = 2001.
DEFAULT_MAX_P = 50

ETA_FORMULAS = ("pinc-difference", "half-roots", "odd-p")


def _check_budget(p: int, max_p: int | None) -> None:
    bound = DEFAULT_MAX_P if max_p is None else max_p
    if p > bound:
        raise ResourceBoundError(
            f"p={p} exceeds the size budget {bound}; raise max_p explicitly to override"
        )


def _lens_q(n: int, q: int, max_p: int | None) -> int:
    """q mod n for the lens space L(n, q): n positive, q coprime to n, and
    n within twice the size budget (the budget is on p, and n = 2p)."""
    if n < 1:
        raise ParameterError(f"lens space order must be positive, got {n}")
    reduced = q % n
    if gcd(reduced, n) != 1:
        raise ParameterError(f"q={q} is not coprime to n={n}")
    bound = 2 * (DEFAULT_MAX_P if max_p is None else max_p)
    if n > bound:
        raise ResourceBoundError(
            f"order n={n} exceeds the size budget {bound}; raise max_p explicitly to override"
        )
    return reduced


def _flipspun_q(p: int, q: int) -> int:
    """q mod 2p for X(p), built from L(2p, q): p positive, q odd and
    coprime to 2p."""
    if p < 1:
        raise ParameterError(f"p must be positive, got {p}")
    reduced = q % (2 * p)
    if reduced % 2 == 0:
        raise ParameterError(f"q={q} must be odd")
    if gcd(reduced, 2 * p) != 1:
        raise ParameterError(f"q={q} is not coprime to 2p={2 * p}")
    return reduced


class MatchingResult(namedtuple("MatchingResult", "p q q_prime matches distinguishable")):
    """The matching of g_{p,q} and g_{p,q'} on X(p) (see distinguish_metrics):
    the matching units, and distinguishable, set on construction, True iff
    there are none."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, q_prime: int, matches: tuple[int, ...]):
        return tuple.__new__(cls, (p, q, q_prime, matches, not matches))

    def __getnewargs__(self):  # pickle and copy call __new__ without the computed field
        return self[:4]


def _closed_inverse(n: int, m: int, c: int) -> Cyclotomic:
    """1 / (zeta_n^m + c) for the shift c = -1 or 1 from its closed form,
    uncertified (_inverse certifies it).

    x = zeta_n^m has order d = n / gcd(m, n), and x + c = -c * (y - 1) for
    y = -c * x.  If y^D = 1 and y != 1, then

        1/(y - 1) = (1/D) * sum_{j<D} j * y^j,

    since (y - 1) * sum_{j<D} j y^j = (D - 1) y^D - sum_{0<j<D} y^j = D, the
    D powers of y summing to 0.  D = d serves c = -1 (y = x), and for c = 1
    (y = -x) D = d when d is even and 2d when d is odd.  So the inverse is
    the numerators j * (-c)^(j+1) at the exponents m*j mod n over D, folded
    once: the rho_table identity, here checked rather than trusted."""
    d = n // gcd(m, n)
    steps = d if c == -1 or d % 2 == 0 else 2 * d
    full = [0] * n
    for j in range(1, steps):
        full[m * j % n] += j if c == -1 or j % 2 else -j
    return Cyclotomic._make(n, *_normalize(n, full, steps))


@lru_cache(maxsize=None)
def _inverse(n: int, m: int, c: int) -> Cyclotomic:
    """1 / (zeta_n^m + c) for the shift c = -1 or 1, cached; zeta_n^m + c
    must be nonzero (m nonzero mod n for c = -1, n odd for c = 1), or the
    certificate fails.

    For m prime to n this is sigma_m(1 / (zeta_n + c)), sigma_m the Galois
    automorphism zeta_n -> zeta_n^m, so only m = 1 and the m that share a
    factor with n build the closed form (_closed_inverse).  Each closed form
    is certified by x * zeta_n^m + c * x = 1, one times_root and one add of
    numerators over den(x), and a failure raises AssertionError; no
    Euclidean inverse is run."""
    if m != 1 and gcd(m, n) == 1:
        return _inverse(n, 1, c).conjugate(m)
    x = _closed_inverse(n, m, c)
    # over den(x), the numerators of x * zeta_n^m + c * x must be den(x), 0, ..., 0
    total = [r + c * a for r, a in zip(x.times_root(m)._num, x._num)]
    if total != [x._den] + [0] * (len(total) - 1):
        raise AssertionError(f"closed-form 1/(zeta_{n}^{m} + {c}) failed its certificate")
    return x


@lru_cache(maxsize=None)
def _pair_product(n: int, a: int, b: int, c: int) -> Cyclotomic:
    return _inverse(n, a, c) * _inverse(n, b, c)


def _inverse_product(n: int, a: int, b: int, c: int) -> Cyclotomic:
    """_inverse(n, a, c) * _inverse(n, b, c), multiplied once per shift c
    and unordered pair {a mod n, b mod n}: the eta trace sums (one per
    divisor order n) and both Fourier forms all read it."""
    a, b = a % n, b % n
    return _pair_product(n, min(a, b), max(a, b), c)


@lru_cache(maxsize=None)
def _trace_table(c: int, p: int, q: int) -> tuple[tuple[int, ...], int]:
    """A field formula's eta sequence, integers v and one den with eta(s) =
    v[s] / den for s = 0 .. 2p-1, cached per (formula, p, q mod 2p): eta(s)
    is (1/p) * sum of zeta_n^(kt) * _inverse(n, kq, c) * _inverse(n, k, c)
    at t = s + q over the k in 0 .. n-1 with gcd(k, n) odd: c = -1, n = 2p
    and the odd k ("half-roots"), or c = 1, n = p odd and every k, times
    (-1)^(s+1) ("odd-p").

    Write k = d*u with d = gcd(k, n) and m = n/d; then zeta_n^k = zeta_m^u
    with u a unit mod m, and u runs once over the units mod m as k runs
    over the k with gcd(k, n) = d.  The term at k is sigma_u(x_m) for
    x_m = zeta_m^t * _inverse(m, q, c) * _inverse(m, 1, c), sigma_u the
    Galois automorphism zeta_m -> zeta_m^u, so the terms with gcd(k, n) = d
    sum to the trace of x_m from Q(zeta_m) to Q, which depends on t mod m
    alone.  So the table takes one product per divisor m of n with n/m odd,
    and every trace of it at once (Cyclotomic._trace_numerators, the
    integers den(x_m) * Tr(zeta_m^t * x_m) for t = 0 .. m-1), scaled to the
    lcm of the denominators (den is p times it) and tiled to the 2p
    exponents.  For half-roots zeta_m^p = -1 (n/m odd), so the antiperiod
    comes out of the traces; entry s reads exponent (s + q) mod 2p, and
    odd-p's sign is applied once.  No Fraction is built."""
    n = 2 * p if c == -1 else p
    divisors = [m for m in range(1, n + 1) if n % m == 0 and n // m % 2]
    elements = [_inverse_product(m, q, 1, c) for m in divisors]
    den = lcm(*(x._den for x in elements))
    total = [0] * (2 * p)
    for x in elements:
        row = [den // x._den * v for v in x._trace_numerators()]
        total = list(map(add, total, row * (2 * p // x.order)))
    values = total[q:] + total[:q]
    if c == 1:
        values[::2] = [-v for v in values[::2]]
    return tuple(values), den * p


def rho_table(n: int, q: int, max_p: int | None = None) -> tuple[Fraction, ...]:
    """Reduced eta invariants of L(n, q) for every character s = 0..n-1.

    Entry s is (1/n) * sum over lam with lam^n = 1, lam != 1 of
    (lam^s - 1) lam^q / ((lam^q - 1)(lam - 1)).  Consecutive entries
    differ by (1/n) * sum lam^(s+q) / (lam^q - 1).  Put x = lam^q, so
    lam^(s+q) = x^(s*q^-1 + 1), and expand with the identity

        1/(x - 1) = (1/n) * sum_{j=0}^{n-1} j x^j   (x^n = 1, x != 1).

    Summing x^m over the nontrivial roots gives n - 1 when n | m and -1
    otherwise, so only j = a_s = (-s*q^-1 - 1) mod n survives apart from
    the constant -n(n-1)/2, and the table is exact from the recurrence

        rho(0) = 0,  rho(s+1) - rho(s) = (n*a_s - n(n-1)/2) / n^2
                                       = (2*a_s - n + 1) / (2n).

    With r = s*q^-1 mod n, a_s = n - 1 - r, so the step of 2n * rho is the
    integer n - 1 - 2r, and the table is the running sum of the n - 1 steps
    for s = 0..n-2, starting from 0.
    """
    return tuple(Fraction(a, 2 * n) for a in _rho_values(n, _lens_q(n, q, max_p)))


def _rho_row(n: int, q: int) -> tuple[int, ...]:
    """2n * rho(s) for s = 0..n-1, uncached: the steps in one list, summed
    by accumulate."""
    q_inv = pow(q, -1, n)
    steps = [n - 1 - 2 * (s * q_inv % n) for s in range(n - 1)]
    return tuple(accumulate(steps, initial=0))


_rho_values = lru_cache(maxsize=None)(_rho_row)


def rho_lens(n: int, q: int, s: int, max_p: int | None = None) -> Fraction:
    """rho_{alpha_s}(L(n, q)) as an exact rational."""
    return Fraction(_rho_values(n, _lens_q(n, q, max_p))[s % n], 2 * n)


def eta_table(p: int, q: int, max_p: int | None = None) -> tuple[Fraction, ...]:
    """eta(X(p), g_{p,q}, alpha_s) for s = 0..2p-1, via the difference of
    lens-space rho invariants at characters s and s+p."""
    q = _flipspun_q(p, q)
    _check_budget(p, max_p)
    return tuple(Fraction(a, 4 * p) for a in _eta_values(p, q))


def _eta_row(p: int, q: int) -> tuple[int, ...]:
    """4p * eta(s) = 2n * (rho(s) - rho(s + p)) for s = 0..2p-1, n = 2p,
    uncached: the rho table minus its rotation by p."""
    rho = _rho_row(2 * p, q)
    return tuple(map(sub, rho, rho[p:] + rho[:p]))


_eta_values = lru_cache(maxsize=None)(_eta_row)


# The integer tables are cached on (n, q mod n) and (p, q mod 2p) only, so
# the budget check runs on every call; the public names expose the caches.
rho_table.cache_info = _rho_values.cache_info
rho_table.cache_clear = _rho_values.cache_clear
eta_table.cache_info = _eta_values.cache_info
eta_table.cache_clear = _eta_values.cache_clear


def eta_flipspun(p: int, q: int, s: int, max_p: int | None = None) -> Fraction:
    return eta_variant(p, q, s, "pinc-difference", max_p)


def eta_variant(p: int, q: int, s: int, formula: str, max_p: int | None = None) -> Fraction:
    """The same eta invariant through one of the rewritten sums.

    "pinc-difference" is the defining difference of rho invariants;
    "half-roots" sums lam^(s+q)/((lam^q-1)(lam-1)) over the 2p-th roots
    with lam^p = -1; "odd-p" (p odd only) substitutes -lam to land in
    Q(zeta_p).  All three agree exactly wherever defined.  The formula and
    the parity of p are checked before the size budget.  Each formula is one
    integer table over the 2p characters and one denominator (_eta_values
    over 4p, or _trace_table), and a value is one Fraction of its entry.
    """
    q = _flipspun_q(p, q)
    if formula not in ETA_FORMULAS:
        raise ParameterError(f"unknown eta formula {formula!r}; expected one of {ETA_FORMULAS}")
    if formula == "odd-p" and p % 2 == 0:
        raise ParameterError("the odd-p formula requires p odd")
    _check_budget(p, max_p)
    if formula == "pinc-difference":
        values, den = _eta_values(p, q), 4 * p
    else:
        values, den = _trace_table(-1 if formula == "half-roots" else 1, p, q)
    return Fraction(values[s % (2 * p)], den)


def _fourier_q(p: int, q: int, j: int) -> int:
    """q mod 2p for a Fourier coefficient of X(p): p odd and 1 <= j < p."""
    q = _flipspun_q(p, q)
    if p % 2 == 0:
        raise ParameterError("Fourier coefficients are defined for odd p only")
    if not 1 <= j <= p - 1:
        raise ParameterError(f"j={j} outside 1..{p - 1}")
    return q


def fourier_coefficient(p: int, q: int, j: int, max_p: int | None = None) -> Cyclotomic:
    """DFT of the alternating eta sequence:
    sum_{s=0}^{p-1} (-1)^(s+1) eta(X(p), g_{p,q}, alpha_s) omega^(-js)."""
    q = _fourier_q(p, q, j)
    _check_budget(p, max_p)
    etas = _eta_values(p, q)  # 4p * eta
    coeffs = [0] * p  # of omega^0 .. omega^(p-1)
    for s in range(p):
        coeffs[(-j * s) % p] += etas[s] if s % 2 == 1 else -etas[s]
    return Cyclotomic(p, coeffs) * Fraction(1, 4 * p)


def fourier_closed_form(p: int, q: int, j: int) -> Cyclotomic:
    """omega^(jq) / ((omega^(jq) + 1)(omega^j + 1)) in Q(zeta_p), as the one
    cached product _inverse_product(p, -jq, j, 1) of shift-1 inverses, since
    omega^a / (omega^a + 1) = 1 / (omega^(-a) + 1)."""
    q = _fourier_q(p, q, j)
    return _inverse_product(p, -j * q, j, 1)


def fourier_unit_ratio(p: int, q: int, j: int) -> Cyclotomic:
    """The closed form as a ratio of cyclotomic units:
    ((omega^(-jq) - 1)(omega^j - 1)) / ((omega^(-2jq) - 1)(omega^(2j) - 1)).

    Each doubled-exponent factor is (x^2-1) = (x-1)(x+1) for the matching
    single-exponent root, so this equals 1/((omega^(-jq)+1)(omega^j+1)).
    For j prime to p other than 1 it is the Galois conjugate sigma_j (omega ->
    omega^j) of the ratio at j = 1: sigma_j is a field automorphism and sends
    each of the four factors at j = 1 to the same factor at j.  The ratio at
    j = 1, and at each j sharing a factor with p, is computed by _unit_ratio.
    """
    q = _fourier_q(p, q, j)
    if j != 1 and gcd(j, p) == 1:
        return _unit_ratio(p, q, 1).conjugate(j)
    return _unit_ratio(p, q, j)


@lru_cache(maxsize=None)
def _unit_ratio(p: int, q: int, j: int) -> Cyclotomic:
    """fourier_unit_ratio with its numerator expanded,
    omega^(j-jq) - omega^(-jq) - omega^j + 1, and summed over the product of
    the two inverses in one root_sum; cached per (p, q mod 2p, j)."""
    w = _inverse_product(p, -2 * j * q, 2 * j, -1)
    return root_sum(p, ((w, j - j * q), (-w, -j * q), (-w, j), (w, 0)))


def _odd_units(n: int) -> list[int]:
    """The units mod n = 2p, which are all odd, in ascending order."""
    return [a for a in range(1, n) if gcd(a, n) == 1]


def _check_odd_p(p: int, max_p: int | None) -> None:
    """The matching needs p odd, positive and within the size budget."""
    if p % 2 == 0:
        raise ParameterError("p must be odd")
    if p < 1:
        raise ParameterError(f"p must be positive, got {p}")
    _check_budget(p, max_p)


def _canonical(table: tuple[int, ...], units: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical form (K[:p], M) of the table E_q = 4p * eta(p, q, .):
    K is the least relabelled table min over a in units of E_q o a,
    (E o a)(s) = E(a*s mod 2p), and M the ascending units a with
    E_q o a = K.  The form keeps K's columns 0..p-1, which determine K by
    the antiperiod below (K = K[:p] followed by its negation), so two forms
    have equal keys iff their K are equal.

    The candidates are narrowed column by column: column s keeps the units
    with the least E_q(a*s).  After column s the survivors are the units whose
    relabelled table agrees with K on columns 0..s.  Columns 1..p-1 are
    enough: rho is periodic mod 2p, so E_q(s + p) = -E_q(s), and for odd a,
    a*p = p mod 2p, so every relabelled table has the same antiperiod,
    (E_q o a)(s + p) = -(E_q o a)(s); tables that agree on columns 0..p-1
    agree on every column.  So the survivors are exactly M after column
    p - 1; and since M is never empty, a single survivor is already M, so
    the narrowing stops there."""
    n = len(table)
    survivors = units
    for s in range(1, n // 2):  # column 0 is E_q(0) for every unit
        if len(survivors) == 1:
            break
        column = [table[(a * s) % n] for a in survivors]
        least = min(column)
        survivors = [a for a, value in zip(survivors, column) if value == least]
    c = survivors[0]
    return tuple([table[(c * s) % n] for s in range(n // 2)]), tuple(survivors)


def _matches(n: int, form_q, form_qp) -> tuple[int, ...]:
    """Every unit a mod n with E_q = E_q' o a, in ascending order, from the
    canonical forms (K, M) of E_q and (K', M') of E_q' (each K kept as its
    columns 0..p-1, which decide whether K = K').

    Take any c in M, so E_q o c = K; note (E o a) o b = E o (ab).  If
    E_q = E_q' o a then E_q' o (ac) = K, and K' = min over b of E_q' o b =
    min over b of E_q' o (ab) = min over b of E_q o b = K (ab runs over all
    units as b does), so ac is in M'.  Conversely, if K = K' and
    ac = m in M', then E_q' o a o c = K = E_q o c, and so E_q' o a = E_q.
    Hence the matches are empty when K != K', and otherwise the coset
    M' * c^-1."""
    (key, minimisers), (key_p, minimisers_p) = form_q, form_qp
    if key != key_p:
        return ()
    c_inv = pow(minimisers[0], -1, n)
    return tuple(sorted((m * c_inv) % n for m in minimisers_p))


def _forms(p: int) -> dict:
    """The canonical form of every q of X(p), in ascending order of q, with
    K(q)[:p] as the key (see _canonical): each table is read once, uncached."""
    units = _odd_units(2 * p)
    return {q: _canonical(_eta_row(p, q), units) for q in units}


def _group(forms: dict) -> list[list[int]]:
    """The q values filed under their least relabelled table K(q)."""
    classes = {}
    for q, (key, _) in forms.items():
        classes.setdefault(key, []).append(q)
    return list(classes.values())


def distinguish_metrics(p: int, q: int, q_prime: int, max_p: int | None = None) -> MatchingResult:
    """Decide whether the metrics g_{p,q} and g_{p,q'} on X(p) can share a
    moduli-space component, by comparing the canonical forms of their exact
    eta tables.

    matches collects every unit a mod 2p with
    eta(p, q, s) = eta(p, q', a*s) for all s; the metrics are
    distinguishable iff no such a exists.  For odd p a match exists iff
    q' = q^(+-1) mod 2p.  Even p is rejected ("p must be odd").
    """
    q, q_prime = _flipspun_q(p, q), _flipspun_q(p, q_prime)
    _check_odd_p(p, max_p)
    units = _odd_units(2 * p)
    form_q = _canonical(_eta_values(p, q), units)
    form_qp = _canonical(_eta_values(p, q_prime), units)
    return MatchingResult(p, q, q_prime, _matches(2 * p, form_q, form_qp))


def component_classes(p: int, max_p: int | None = None) -> list[list[int]]:
    """Partition of the valid rotation parameters q under the matching
    relation; the class count is a lower bound for the number of psc
    moduli-space components of X(p).

    q ~ q' iff E_q = E_q' o a for some a in the group U of odd units mod 2p,
    and by the coset rule of the canonical forms that holds iff
    K(q) = K(q'), K(q) = min over a in U of E_q o a; so each q is filed under
    its canonical key K(q)[:p], which determines K(q) (see _canonical).  Each
    table is read once and cached nowhere, so rho_table and eta_table keep
    no entry from this call.  Classes list by least q."""
    _check_odd_p(p, max_p)
    return _group(_forms(p))


def matching_sweep(p: int, max_p: int | None = None) -> tuple[list, dict, list]:
    """The q values of X(p), the match set of every ordered pair (q, q')
    in ascending order, and the component classes, component_classes(p).

    Each q's canonical form (K, M) is computed once, from a table read once
    and cached nowhere, and keyed by K[:p] as in component_classes; the cell
    (q, q') is the coset M(q') * c^-1 for c in M(q) when K(q) = K(q') and
    empty otherwise, so the sweep costs the size of its output, not a table
    scan per cell."""
    _check_odd_p(p, max_p)
    forms = _forms(p)
    units = list(forms)
    table = {(q, qp): _matches(2 * p, forms[q], forms[qp]) for q in units for qp in units}
    return units, table, _group(forms)
