"""Exact arithmetic for the cyclic group of order a²b²c² (distinct primes a<b<c).

Covers triple validation, element orders, the CRT basis and the combination
of three residues mod (a², b², c²) into one exponent, and a canonical Bezout
witness certifying that the three products of squared primes generate the
whole group.  Everything is pure integer arithmetic; all functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections import namedtuple

INT64_MAX = 2**63 - 1


class TripleValidationError(ValueError):
    """A prime triple failed validation."""


class NonPrimeError(TripleValidationError):
    pass


class NotDistinctError(TripleValidationError):
    pass


class NotAscendingError(TripleValidationError):
    pass


def is_prime(m: int) -> bool:
    """Deterministic trial division up to √m; inputs stay desk-scale."""
    return m >= 2 and all(m % p for p in range(2, math.isqrt(m) + 1))


class PrimeTriple(namedtuple("PrimeTriple", "alpha beta gamma n m_alpha m_beta m_gamma")):
    """Validated primes alpha < beta < gamma with derived moduli and group order.

    Build via :func:`make_prime_triple`; constructing directly skips validation.
    """

    __slots__ = ()

    @property
    def primes(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)

    @property
    def moduli(self) -> tuple[int, int, int]:
        return (self.m_alpha, self.m_beta, self.m_gamma)


def make_prime_triple(a: int, b: int, c: int) -> PrimeTriple:
    """Validate (a, b, c) and derive the group order n = a²b²c².

    Raises NonPrimeError / NotDistinctError / NotAscendingError on bad input
    and OverflowError when n would exceed a 64-bit signed integer.  The
    overflow is checked first, so trial division never runs on a prime too
    large for any valid triple.
    """
    n = (a * b * c) ** 2
    if n > INT64_MAX:
        raise OverflowError(f"group order {n} exceeds 64-bit range")
    for p in (a, b, c):
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
    if len({a, b, c}) != 3:
        raise NotDistinctError(f"primes must be distinct, got ({a}, {b}, {c})")
    if not (a < b < c):
        raise NotAscendingError(f"primes must be ascending, got ({a}, {b}, {c})")
    return PrimeTriple(a, b, c, n, a * a, b * b, c * c)


def _check_exponent(k: int, t: PrimeTriple) -> None:
    if not 0 <= k < t.n:
        raise ValueError(f"exponent {k} out of range [0, {t.n})")


def element_order(k: int, t: PrimeTriple) -> int:
    """Order of the group element with exponent k; the identity has order 1."""
    _check_exponent(k, t)
    return t.n // math.gcd(t.n, k)


def crt_basis(t: PrimeTriple) -> tuple[int, int, int]:
    """Exponents e with e ≡ 1 modulo one modulus and ≡ 0 modulo the other two."""
    basis = []
    for m in t.moduli:
        rest = t.n // m
        basis.append(rest * pow(rest, -1, m) % t.n)
    return tuple(basis)


def crt_combine(comps: tuple[int, int, int], t: PrimeTriple) -> int:
    """Unique exponent in [0, n) with the given residues modulo (a², b², c²)."""
    for g, m in zip(comps, t.moduli):
        if not 0 <= g < m:
            raise ValueError(f"component {g} out of range [0, {m})")
    e_a, e_b, e_c = crt_basis(t)
    return (comps[0] * e_a + comps[1] * e_b + comps[2] * e_c) % t.n


def _abs_min_residue(x: int, m: int) -> int:
    # representative of x mod m with the smallest absolute value
    r = x % m
    return r if r <= m - r else r - m


def bezout_witness(t: PrimeTriple) -> tuple[int, int, int]:
    """Integers (u, v, w) with u·b²c² + v·a²c² + w·a²b² = 1, canonically reduced.

    u and v are the least-absolute-value representatives of their forced
    residue classes (mod a², mod b²); w is then determined exactly.  The
    reduction gives |u| < a², |v| < b², |w| < c² and a deterministic output.
    """
    m_a, m_b, m_c = t.moduli
    bc = m_b * m_c
    # u·b²c² ≡ 1 (mod a²) forces u mod a²; shifting u is absorbed by (v, w).
    u = _abs_min_residue(pow(bc, -1, m_a), m_a)
    rest = (1 - u * bc) // m_a  # exact by the choice of u; now v·c² + w·b² = rest
    v = _abs_min_residue(rest * pow(m_c, -1, m_b), m_b)
    return (u, v, (rest - v * m_c) // m_b)  # exact by the choice of v
